package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stwave/internal/codec"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/wavelet"
)

// compressToTargetBisect is the reference oracle for CompressToTarget: a
// blind bisection in log-ratio space where every probe is a full
// CompressWindow plus Decompress round trip. CompressToTarget must return
// the same window and the same NRMSE.
func compressToTargetBisect(opts Options, w *grid.Window, targetNRMSE, minRatio, maxRatio float64) (*CompressedWindow, float64, int, error) {
	probes := 0
	tryRatio := func(ratio float64) (*CompressedWindow, float64, error) {
		probes++
		o := opts
		o.Ratio = ratio
		comp, err := New(o)
		if err != nil {
			return nil, 0, err
		}
		recon, cw, err := comp.RoundTrip(w)
		if err != nil {
			return nil, 0, err
		}
		ac := metrics.NewAccumulator()
		for i := range w.Slices {
			if err := ac.Add(w.Slices[i].Data, recon.Slices[i].Data); err != nil {
				return nil, 0, err
			}
		}
		return cw, ac.NRMSE(), nil
	}

	bestCW, bestErr, err := tryRatio(minRatio)
	if err != nil {
		return nil, 0, probes, err
	}
	if bestErr > targetNRMSE {
		return bestCW, bestErr, probes, fmt.Errorf("core: NRMSE %.4g at minimum ratio %g exceeds target %.4g", bestErr, minRatio, targetNRMSE)
	}
	lo, hi := math.Log2(minRatio), math.Log2(maxRatio)
	for iter := 0; iter < 12 && hi-lo > 0.05; iter++ {
		mid := (lo + hi) / 2
		cw, e, err := tryRatio(math.Exp2(mid))
		if err != nil {
			return nil, 0, probes, err
		}
		if e <= targetNRMSE {
			bestCW, bestErr = cw, e
			lo = mid
		} else {
			hi = mid
		}
	}
	return bestCW, bestErr, probes, nil
}

// bisectIndex is compressToTargetBisect's search on grid indices: the
// point bisection returns when point k passes iff pass(k), or -1 when
// point 0 fails.
func bisectIndex(n int, pass func(k int) bool) int {
	if !pass(0) {
		return -1
	}
	lo, hi := 0, 1<<n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func serializeWindow(t *testing.T, cw *CompressedWindow) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompressToTargetMatchesBisection: across kernels, codecs, layouts,
// modes, a short final window, a constant window, targets and ratio
// ranges, the search over the transform-once probe returns the
// byte-identical window and the same NRMSE as the full-round-trip
// bisection.
func TestCompressToTargetMatchesBisection(t *testing.T) {
	entropy, err := codec.ByName("entropy")
	if err != nil {
		t.Fatal(err)
	}
	d := grid.Dims{Nx: 12, Ny: 10, Nz: 8}
	base := DefaultOptions()
	base.WindowSize = 8
	rng := rand.New(rand.NewSource(3))
	coherent := coherentWindow(d, 8, 0.3)
	noisy := noisyWindow(rng, d, 8)
	short := coherentWindow(d, 5, 0.7)
	// A constant window has no data range: every score is ±Inf and the
	// energy model predicts nothing, so the search must fall back cleanly.
	constant := coherentWindow(d, 8, 0)
	for _, f := range constant.Slices {
		for i := range f.Data {
			f.Data[i] = 0.5
		}
	}
	configs := []struct {
		name string
		w    *grid.Window
		edit func(*Options)
	}{
		{"cdf97/sparse", coherent, func(*Options) {}},
		{"cdf97/sparse/noisy", noisy, func(*Options) {}},
		{"cdf53/sparse", coherent, func(o *Options) { o.SpatialKernel, o.TemporalKernel = wavelet.CDF53, wavelet.CDF53 }},
		{"cdf97/entropy", coherent, func(o *Options) { o.Codec = entropy }},
		{"cdf97/sparse/progressive", coherent, func(o *Options) { o.Progressive = true }},
		{"cdf53/entropy/progressive", noisy, func(o *Options) {
			o.SpatialKernel, o.TemporalKernel = wavelet.CDF53, wavelet.CDF53
			o.Codec, o.Progressive = entropy, true
		}},
		{"3d", coherent, func(o *Options) { o.Mode = Spatial3D }},
		{"short-final-window", short, func(*Options) {}},
		{"constant", constant, func(*Options) {}},
	}
	ranges := [][2]float64{{1, 1024}, {1, 512}, {64, 512}}
	oracleProbes, searchProbes := 0, 0
	for _, c := range configs {
		opts := base
		c.edit(&opts)
		for _, rg := range ranges {
			for _, target := range []float64{1e-2, 1e-3, 1e-4, 1e-5} {
				name := fmt.Sprintf("%s/[%g,%g]/%g", c.name, rg[0], rg[1], target)
				want, wantErr, np, wantE := compressToTargetBisect(opts, c.w, target, rg[0], rg[1])
				got, gotErr, gotE := CompressToTarget(opts, c.w, target, rg[0], rg[1])
				if (wantE == nil) != (gotE == nil) {
					t.Fatalf("%s: bisection error %v, search error %v", name, wantE, gotE)
				}
				if want == nil || got == nil {
					t.Fatalf("%s: nil window (bisection %v, search %v)", name, want == nil, got == nil)
				}
				if gotErr != wantErr {
					t.Errorf("%s: NRMSE %v, bisection %v", name, gotErr, wantErr)
				}
				if got.Opts.Ratio != want.Opts.Ratio {
					t.Errorf("%s: ratio %v, bisection %v", name, got.Opts.Ratio, want.Opts.Ratio)
				}
				if !bytes.Equal(serializeWindow(t, got), serializeWindow(t, want)) {
					t.Errorf("%s: serialized window differs from bisection's", name)
				}
				oracleProbes += np
				searchProbes += got.Probes
			}
		}
	}
	t.Logf("probes: bisection %d, search %d", oracleProbes, searchProbes)
	if searchProbes >= oracleProbes {
		t.Errorf("search used %d probes, bisection %d", searchProbes, oracleProbes)
	}
}

// curve is a synthetic error curve for the pure search: point k passes
// iff k <= boundary, and score(k) rises through zero near the boundary.
type curve struct {
	name  string
	score func(k, boundary int) float64
}

var monotoneCurves = []curve{
	{"linear", func(k, b int) float64 { return float64(k-b) - 0.5 }},
	{"steep-convex", func(k, b int) float64 { return math.Exp(float64(k-b)/8) - math.Exp(0.5/8) }},
	{"flat-concave", func(k, b int) float64 { return math.Cbrt(float64(k-b) - 0.5) }},
	{"step", func(k, b int) float64 {
		if k <= b {
			return -1
		}
		return 1
	}},
	{"exact-zero", func(k, b int) float64 {
		if k <= b {
			return 0
		}
		return 1
	}},
	{"unscored", func(k, b int) float64 { return math.NaN() }},
}

// models are the score predictions the pure search is tested with:
// exact, off by a constant or a factor (what calibration corrects),
// uninformative and misleading.
var models = []struct {
	name  string
	model func(score func(int) float64) func(int) float64
}{
	{"exact", func(score func(int) float64) func(int) float64 { return score }},
	{"biased", func(score func(int) float64) func(int) float64 {
		return func(k int) float64 { return score(k) + 0.7 }
	}},
	{"scaled", func(score func(int) float64) func(int) float64 {
		return func(k int) float64 { return 3 * score(k) }
	}},
	{"inverted", func(score func(int) float64) func(int) float64 {
		return func(k int) float64 { return -score(k) }
	}},
	{"flat", func(func(int) float64) func(int) float64 {
		return func(int) float64 { return 0 }
	}},
}

// TestSearchGridMatchesBisection: on monotone curves of every shape, with
// every kind of model, the search returns bisection's point for every
// boundary, including the boundaries below point 0 and at or above the
// top point, within a pinned worst-case probe count.
func TestSearchGridMatchesBisection(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 6, 8, 10} {
		top := 1 << n
		worst := 0
		for _, c := range monotoneCurves {
			for _, m := range models {
				for boundary := -1; boundary <= top; boundary++ {
					passes := func(k int) bool { return k <= boundary }
					score := func(k int) float64 { return c.score(k, boundary) }
					want := bisectIndex(n, passes)
					probes := 0
					seen := map[int]bool{}
					got, err := searchGrid(n, m.model(score), func(k int) (bool, float64, error) {
						if k < 0 || k >= top || seen[k] {
							t.Fatalf("n=%d %s/%s boundary %d: probe of point %d", n, c.name, m.name, boundary, k)
						}
						seen[k] = true
						probes++
						return passes(k), score(k), nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("n=%d %s/%s boundary %d: search %d, bisection %d", n, c.name, m.name, boundary, got, want)
					}
					if seen[0] && boundary > 0 && boundary < top {
						t.Errorf("n=%d %s/%s boundary %d: probed the minimum ratio though an interior point passes",
							n, c.name, m.name, boundary)
					}
					worst = max(worst, probes)
				}
			}
		}
		// Bisection needs n+1 probes. The search may take up to twice
		// that on curves its aim misjudges.
		if bound := 2*n + 1; worst > bound {
			t.Errorf("n=%d: worst case %d probes, pinned bound %d", n, worst, bound)
		}
	}
}

// TestSearchGridRealisticCurve: on smooth power-law error curves, the
// kind wavelet thresholding produces, with a model that is 10–20% off in
// NRMSE the way the energy model is, the search needs at most three
// probes on average against bisection's n+1.
func TestSearchGridRealisticCurve(t *testing.T) {
	const n = 8
	total, count := 0, 0
	for _, exponent := range []float64{0.6, 1, 1.7} {
		for _, logTarget := range []float64{-9, -7, -5, -3} {
			score := func(k int) float64 {
				logRatio := 10 * float64(k) / (1 << n)
				return exponent*logRatio*math.Ln2 - 8 - logTarget
			}
			model := func(k int) float64 { return score(k) - math.Log(1.1+0.1*float64(k)/(1<<n)) }
			passes := func(k int) bool { return score(k) <= 0 }
			probes := 0
			got, err := searchGrid(n, model, func(k int) (bool, float64, error) {
				probes++
				return passes(k), score(k), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := bisectIndex(n, passes); got != want {
				t.Errorf("exponent %g target %g: search %d, bisection %d", exponent, logTarget, got, want)
			}
			total += probes
			count++
		}
	}
	if avg := float64(total) / float64(count); avg > 3 {
		t.Errorf("average %.2f probes on power-law curves, want at most 3 (bisection takes %d)", avg, n+1)
	}
}

// TestSearchGridNonMonotone: when error does not grow monotonically with
// ratio, the search still returns a passing point whose upper neighbour
// fails (the top point counts as failing), or -1 only when point 0 fails
// and no interior point it probed passed.
func TestSearchGridNonMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 6
	top := 1 << n
	for trial := 0; trial < 500; trial++ {
		pass := make([]bool, top)
		score := make([]float64, top)
		for k := range pass {
			pass[k] = rng.Float64() < 0.5
			score[k] = rng.NormFloat64()
			if pass[k] == (score[k] > 0) {
				score[k] = -score[k]
			}
		}
		// Half the trials aim with a model as erratic as the curve.
		model := func(k int) float64 { return score[k] }
		if trial%2 == 0 {
			model = func(int) float64 { return 0 }
		}
		probed := map[int]bool{}
		got, err := searchGrid(n, model, func(k int) (bool, float64, error) {
			probed[k] = true
			return pass[k], score[k], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got < 0 {
			if pass[0] || !probed[0] {
				t.Fatalf("trial %d: -1 returned but point 0 passes or was not probed", trial)
			}
			continue
		}
		if !pass[got] || !probed[got] {
			t.Fatalf("trial %d: returned %d, which fails or was not probed", trial, got)
		}
		if up := got + 1; up < top && (pass[up] || !probed[up]) {
			t.Fatalf("trial %d: returned %d but its upper neighbour passes or was not probed", trial, got)
		}
	}
}

// TestSearchGridPropagatesProbeErrors: a probe error ends the search.
func TestSearchGridPropagatesProbeErrors(t *testing.T) {
	boom := fmt.Errorf("boom")
	calls := 0
	if _, err := searchGrid(8, func(int) float64 { return 0 }, func(int) (bool, float64, error) {
		calls++
		return false, 0, boom
	}); err != boom || calls != 1 {
		t.Fatalf("got error %v after %d probes, want boom after 1", err, calls)
	}
}
