package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"stwave/internal/compress"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/obs"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/transform"
)

// CompressToTarget finds the most aggressive compression ratio whose
// reconstruction NRMSE stays at or below targetNRMSE, searching a
// log-spaced grid of ratios between minRatio and maxRatio. It returns the
// compressed window at the chosen ratio along with the achieved error.
//
// This inverts the paper's workflow — scientists often know the error they
// can tolerate, not the ratio that produces it. The window is transformed
// once; each probe of the search thresholds, encodes, decodes and inverts
// a fresh copy of those coefficients, so the reported NRMSE is measured on
// the exact stream returned. The grid is the one a log-ratio bisection
// would visit. The search over it (searchGrid) aims each probe with an
// estimate of the error from the energy of the discarded coefficients
// (energyModel), calibrated against the probes so far, and settles on the
// ratio bisection would pick whenever error grows with ratio, typically in
// two or three probes instead of bisection's nine over [1, 1024]. When
// even minRatio misses the target, the window at minRatio is returned with
// an error (callers may accept it or store raw).
//
// The window always runs through the float64 pipeline; the error-bounded
// mode (MaxErr) is a different rate control and is rejected.
func CompressToTarget(opts Options, w *grid.Window, targetNRMSE, minRatio, maxRatio float64) (*CompressedWindow, float64, error) {
	if targetNRMSE <= 0 || math.IsNaN(targetNRMSE) {
		return nil, 0, fmt.Errorf("core: target NRMSE must be positive, got %g", targetNRMSE)
	}
	if minRatio < 1 || maxRatio < minRatio {
		return nil, 0, fmt.Errorf("core: invalid ratio range [%g, %g]", minRatio, maxRatio)
	}
	o := opts
	o.Ratio = minRatio
	if err := o.Validate(); err != nil {
		return nil, 0, err
	}
	if o.MaxErr > 0 {
		return nil, 0, fmt.Errorf("core: target NRMSE and MaxErr are different rate-control modes; pick one")
	}
	if w.Len() == 0 {
		return nil, 0, fmt.Errorf("core: cannot compress an empty window")
	}

	// Transform once: every probe restores these coefficients.
	t, s := w.Len(), w.Dims.Len()
	spec := o.spec(w.Dims, t)
	workers := par.Workers(o.Workers)
	saved := scratch.Floats(t * s)
	defer scratch.PutFloats(saved)
	coeffWin, coeffs := slabWindow(saved, w.Dims, t, w.Times)
	for i, d := range coeffs {
		copy(d, w.Slices[i].Data)
	}
	if err := transform.Forward4D(coeffWin, spec); err != nil {
		return nil, 0, fmt.Errorf("core: forward transform: %w", err)
	}
	v := newVerifier(o, w, coeffs, spec)
	defer v.release()

	lo, hi := math.Log2(minRatio), math.Log2(maxRatio)
	n := bisectionDepth(hi - lo)
	ratioAt := func(k int) float64 {
		if k == 0 {
			return minRatio
		}
		return math.Exp2(gridLog(lo, hi, n, k))
	}
	logTarget := math.Log(targetNRMSE)
	em := newEnergyModel(w, coeffs, workers)
	model := func(k int) float64 { return em.logNRMSE(ratioAt(k)) - logTarget }
	var best *CompressedWindow
	var bestErr float64
	probes := 0
	k, err := searchGrid(n, model, func(k int) (bool, float64, error) {
		po := o
		po.Ratio = ratioAt(k)
		probes++
		blocks, levelBlocks, err := v.probe(context.Background(), workers, func(datas [][]float64) error {
			return thresholdOf(po, datas, workers)
		})
		if err != nil {
			return false, 0, err
		}
		ac := metrics.NewAccumulator()
		for i := range w.Slices {
			if err := ac.Add(w.Slices[i].Data, v.datas[i]); err != nil {
				return false, 0, err
			}
		}
		obs.Default().Counter("core.compress_windows_total").Add(1)
		obs.Default().Counter("core.decompress_windows_total").Add(1)
		e := ac.NRMSE()
		pass := e <= targetNRMSE
		// Only the window the search may return is kept: the latest
		// passing probe (the bracket's lower end only rises), or the
		// minimum-ratio probe the unreachable case reports.
		if pass || k == 0 {
			best = &CompressedWindow{
				Dims:           w.Dims,
				Times:          append([]float64(nil), w.Times...),
				Opts:           po,
				SpatialLevels:  spec.SpatialLevels,
				TemporalLevels: spec.TemporalLevels,
				Blocks:         blocks,
				LevelBlocks:    levelBlocks,
			}
			bestErr = e
		}
		return pass, math.Log(e) - logTarget, nil
	})
	if err != nil {
		return nil, 0, err
	}
	best.Probes = probes
	obs.Default().Histogram("core.target_probes").Observe(float64(probes))
	if enc := best.EncodedSizeBytes(); enc > 0 {
		obs.Default().Gauge("codec.ratio." + o.codec().Name()).Set(float64(v.rawBytes) / float64(enc))
	}
	if k < 0 {
		return best, bestErr, fmt.Errorf("core: NRMSE %.4g at minimum ratio %g exceeds target %.4g", bestErr, minRatio, targetNRMSE)
	}
	return best, bestErr, nil
}

// bisectionDepth is the number of halvings a log2-ratio bracket of the
// given span takes to reach 0.05 or less, capped at 12: 8 for [1, 1024].
// It fixes the resolution of the ratio grid.
func bisectionDepth(span float64) int {
	n := 0
	for n < 12 && span > 0.05 {
		span /= 2
		n++
	}
	return n
}

// gridLog returns point k of the grid of 2^n equal steps over [lo, hi].
// It takes the chain of midpoints a bisection of [lo, hi] takes to reach
// k, so every point is bit-identical to the one bisection would try.
func gridLog(lo, hi float64, n, k int) float64 {
	klo, khi := 0, 1<<n
	for {
		switch k {
		case klo:
			return lo
		case khi:
			return hi
		}
		kmid, mid := (klo+khi)/2, (lo+hi)/2
		switch {
		case k == kmid:
			return mid
		case k < kmid:
			khi, hi = kmid, mid
		default:
			klo, lo = kmid, mid
		}
	}
}

// searchGrid finds a passing point of the grid 0..2^n whose upper
// neighbour fails. Point 0 is presumed to pass and point 2^n to fail, so
// the search starts from the bracket (0, 2^n) without probing either and
// narrows it until its ends are adjacent. It returns the lower end, or -1
// when no interior point passes and a probe of point 0 fails too. Point 0
// is probed only in that last case.
//
// probe(k) reports whether point k passes, and a score that rises through
// zero near the pass/fail boundary (log NRMSE − log target for the ratio
// search). model(k) predicts that score from the data alone. Each probe
// aims at the boundary the model predicts once shifted to agree with the
// last probe's score, and rounds away from the end the last probe moved,
// so a good prediction closes the bracket from both sides in two probes.
// The safeguard is Brent's: from the fourth probe on, an aimed step must
// be at most half the step before last, and when it is not, or the last
// score is not finite, the probe falls back to the bracket's midpoint.
// Every probe lies strictly inside the bracket, so when pass is monotone
// in k the search returns exactly the point bisection returns: the
// largest passing point below 2^n.
func searchGrid(n int, model func(k int) float64, probe func(k int) (pass bool, score float64, err error)) (int, error) {
	lo, hi := 0, 1<<n
	lastK, lastS, lastPass := 0, 0.0, false
	lastStep, stepBeforeLast := math.MaxInt, math.MaxInt
	for probes := 0; hi-lo > 1; probes++ {
		offset := 0.0
		if probes > 0 {
			offset = lastS - model(lastK)
		}
		k := lo + (hi-lo)/2
		if aim, ok := modelAim(model, offset, lo, hi, lastPass); ok && 2*abs(aim-lastK) <= stepBeforeLast {
			k = aim
		}
		pass, s, err := probe(k)
		if err != nil {
			return 0, err
		}
		if pass {
			lo = k
		} else {
			hi = k
		}
		if probes > 0 {
			lastStep, stepBeforeLast = abs(k-lastK), lastStep
		}
		lastK, lastS, lastPass = k, s, pass
	}
	if lo > 0 {
		return lo, nil
	}
	pass, _, err := probe(0)
	if err != nil {
		return 0, err
	}
	if !pass {
		return -1, nil
	}
	return 0, nil
}

// modelAim returns the interior point of the bracket (lo, hi) next to the
// boundary model+offset predicts: the last point predicted to pass, or,
// when the last probe passed, the first point predicted to fail. It
// reports false when offset is not finite.
func modelAim(model func(k int) float64, offset float64, lo, hi int, lastPass bool) (int, bool) {
	if math.IsNaN(offset) || math.IsInf(offset, 0) {
		return 0, false
	}
	// First point in (lo, hi) predicted to fail; hi when none is.
	fail := lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return model(lo+1+i)+offset > 0 })
	aim := fail - 1
	if lastPass {
		aim = fail
	}
	return min(max(aim, lo+1), hi-1), true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// energyShift keeps, of a magnitude's bit pattern, the 11 exponent bits
// and the top 4 mantissa bits: magnitudes sharing a bucket of the energy
// model differ by less than 1/16.
const energyShift = 48

// energyModel predicts the NRMSE a ratio leaves from the transform
// coefficients alone. For a near-orthogonal wavelet the squared
// reconstruction error is close to the energy of the coefficients that
// thresholding discards: on synthetic turbulence under CDF 9/7, from 2:1
// up to 1024:1, the measured NRMSE was 1.05–1.25× the prediction (below
// 2:1 the codec's float32 rounding dominates). searchGrid corrects the
// bias against each probe, so the model only aims probes; every decision
// still rests on a measured NRMSE. The histogram holds counts only and
// each bucket's energy is taken at its centre, so the model is the same
// for any worker count.
type energyModel struct {
	cumCount  []int     // coefficients in the buckets below each bucket
	cumEnergy []float64 // their energy
	centre2   []float64 // squared centre magnitude of each bucket
	total     int
	logRange  float64 // log of the original window's data range
}

func newEnergyModel(w *grid.Window, coeffs [][]float64, workers int) *energyModel {
	const buckets = 1 << (63 - energyShift)
	count := make([]int, buckets)
	var mu sync.Mutex
	lows, highs := make([]float64, len(coeffs)), make([]float64, len(coeffs))
	par.For(len(coeffs), workers, 1, func(start, end int) {
		local := make([]int, buckets)
		for i := start; i < end; i++ {
			for _, v := range coeffs[i] {
				local[(math.Float64bits(v)&^(1<<63))>>energyShift]++
			}
			lows[i], highs[i] = math.Inf(1), math.Inf(-1)
			for _, v := range w.Slices[i].Data {
				lows[i], highs[i] = math.Min(lows[i], v), math.Max(highs[i], v)
			}
		}
		mu.Lock()
		for b, c := range local {
			count[b] += c
		}
		mu.Unlock()
	})
	m := &energyModel{
		cumCount:  make([]int, buckets+1),
		cumEnergy: make([]float64, buckets+1),
		centre2:   make([]float64, buckets),
		logRange:  math.Log(slices.Max(highs) - slices.Min(lows)),
	}
	for b := range uint64(buckets) {
		lower := math.Float64frombits(b << energyShift)
		upper := math.Float64frombits((b + 1) << energyShift)
		centre := (lower + upper) / 2
		m.centre2[b] = centre * centre
		m.cumCount[b+1] = m.cumCount[b] + count[b]
		m.cumEnergy[b+1] = m.cumEnergy[b] + float64(count[b])*m.centre2[b]
	}
	m.total = m.cumCount[buckets]
	return m
}

// logNRMSE returns the log of the NRMSE the model predicts when a joint
// budget at ratio keeps the largest coefficients and discards the rest.
func (m *energyModel) logNRMSE(ratio float64) float64 {
	keep, err := compress.KeepCount(m.total, ratio)
	if err != nil || m.total == 0 {
		return math.NaN()
	}
	discard := m.total - keep
	// The last bucket whose lower neighbours hold at most discard values.
	b := sort.Search(len(m.centre2), func(b int) bool { return m.cumCount[b+1] > discard })
	energy := m.cumEnergy[len(m.centre2)]
	if b < len(m.centre2) {
		energy = m.cumEnergy[b] + float64(discard-m.cumCount[b])*m.centre2[b]
	}
	return 0.5*math.Log(energy/float64(m.total)) - m.logRange
}
