package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"stwave/internal/codec"
	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/obs"
	"stwave/internal/storage"
)

// targetNRMSE is the error target of the target_nrmse workload, the
// stcomp -target-nrmse value it models.
const targetNRMSE = 1e-3

// psnrFloorDB flags a container that decodes to garbage. It sits far
// below what any configuration here produces, so it catches corruption,
// not a loss of fidelity.
const psnrFloorDB = 20

// sliceSteps describes the latency samples of the file-driven paths.
const sliceSteps = "slice steps: load one raw file and hand it to the writer; every window-th step compresses and appends a window"

// writePath is a write workload as the shared runner sees it: each pass
// is one complete run of the operator's command, from building the
// program to closing the container.
type writePath struct {
	slices int // input slices per pass
	// latencyIs says what one latency sample is, for the text report.
	latencyIs string
	// pass writes one container at out. It appends one latency sample
	// per slice step to lat when lat is non-nil.
	pass func(ctx context.Context, out string, lat *[]time.Duration) (windows int, err error)
	// setup builds the program and runs its first cycle for setup_s; nil
	// times one whole pass.
	setup func(out string) error
	// source is the input slice at global time index t of a pass.
	source func(t int) (*grid.Field3D32, error)
	// windowOK judges one decoded window by its NRMSE; nil accepts any.
	windowOK func(nrmse float64) bool
	// adjust moves stage time the registry saw but no span did into the
	// ledger; nil when spans cover every stage.
	adjust func(l *ledger, d regDelta)
	// afterTrace records workload counters from the traced passes.
	afterTrace func()
}

// archiveOptions is what stcomp compress runs with its defaults: 4D,
// CDF 9/7 in space and time, window 20, ratio 32, sparse codec, f64.
func archiveOptions(workers int) core.Options {
	opts := core.DefaultOptions()
	opts.Codec = codec.Sparse()
	opts.Precision = core.Float64
	opts.Workers = workers
	return opts
}

// runArchive is the offline path: the raw files become one container
// through the calls stcomp compress makes. workers=0 uses every core;
// archive_w1 runs the same path on one worker as the serial baseline.
func runArchive(b *bench, workers int) error {
	s := b.cfg.scale
	if err := b.genInputs(s.Slices, true); err != nil {
		return err
	}
	b.dropSlices()
	opts := archiveOptions(workers)
	return b.runWritePath(&writePath{
		slices:    s.Slices,
		latencyIs: sliceSteps,
		pass: func(ctx context.Context, out string, lat *[]time.Duration) (int, error) {
			return b.archivePass(ctx, opts, b.in.paths[:s.Slices], out, lat)
		},
		source: b.in.slice,
	})
}

// archivePass mirrors stcomp compress: grid.LoadRawFileOf per file into
// core.WriterOf, whose sink appends to a storage.ContainerWriter with
// fsync never. Each public call runs under its own span, so a traced
// pass splits into layers; untraced, the spans are no-ops.
func (b *bench) archivePass(ctx context.Context, opts core.Options, paths []string, out string, lat *[]time.Duration) (int, error) {
	_, sp := obs.Start(ctx, "storage.create")
	cw, err := storage.CreateContainer(out)
	sp.End()
	if err != nil {
		return 0, err
	}
	cw.Sync = storage.SyncNever
	sinkCtx := ctx
	_, sp = obs.Start(ctx, "core.new_writer")
	writer, err := core.NewWriterOf[float64](opts, b.in.dims, func(w *core.CompressedWindow) error {
		actx, sp := obs.Start(sinkCtx, "storage.sink")
		defer sp.End()
		_, err := cw.AppendCtx(actx, w)
		return err
	})
	sp.End()
	if err != nil {
		cw.Close()
		return 0, err
	}
	d := b.in.dims
	for i, path := range paths {
		start := time.Now()
		_, sp := obs.Start(ctx, "grid.load")
		f, err := grid.LoadRawFileOf[float64](path, d.Nx, d.Ny, d.Nz)
		sp.End()
		if err != nil {
			cw.Close()
			return 0, fmt.Errorf("loading %s: %w", path, err)
		}
		// The writer compresses under the context it holds and the sink
		// appends under sinkCtx, so both nest under this slice's span.
		wctx, sp := obs.Start(ctx, "core.write_slice")
		sinkCtx = wctx
		writer.SetContext(wctx)
		err = writer.WriteSlice(f, float64(i))
		sp.End()
		if err != nil {
			cw.Close()
			return 0, err
		}
		if lat != nil {
			*lat = append(*lat, time.Since(start))
		}
	}
	fctx, sp := obs.Start(ctx, "core.flush")
	sinkCtx = fctx
	writer.SetContext(fctx)
	err = writer.Flush()
	sp.End()
	if err != nil {
		cw.Close()
		return 0, err
	}
	_, sp = obs.Start(ctx, "storage.close")
	err = cw.Close()
	sp.End()
	return writer.Stats().WindowsOut, err
}

// runTarget is stcomp compress -target-nrmse: the first TargetSlices
// files, each window compressed by core.CompressToTarget.
func runTarget(b *bench) error {
	s := b.cfg.scale
	if err := b.genInputs(s.TargetSlices, true); err != nil {
		return err
	}
	b.dropSlices()
	opts := archiveOptions(0)
	winMiB := float64(opts.WindowSize*b.in.dims.Len()*8) / mib
	return b.runWritePath(&writePath{
		slices:    s.TargetSlices,
		latencyIs: sliceSteps,
		pass: func(ctx context.Context, out string, lat *[]time.Duration) (int, error) {
			return b.targetPass(ctx, opts, b.in.paths[:s.TargetSlices], out, lat)
		},
		// A pass is two windows of a few seconds each, so the first cycle
		// timed for setup_s is one window, the unit rate control works on.
		setup: func(out string) error {
			_, err := b.targetPass(context.Background(), opts, b.in.paths[:opts.WindowSize], out, nil)
			return err
		},
		source:   b.in.slice,
		windowOK: func(nrmse float64) bool { return nrmse <= targetNRMSE },
		// CompressToTarget takes no context, so its compress and decode
		// round trips record registry timings but no spans: move them out
		// of the opaque core.compress_to_target span into their layers.
		adjust: func(l *ledger, d regDelta) {
			stages := map[string]float64{
				"transform.forward_3d_s":       d.seconds("transform.forward_3d_seconds"),
				"transform.forward_temporal_s": d.seconds("transform.forward_temporal_seconds"),
				"transform.inverse_temporal_s": d.seconds("transform.inverse_temporal_seconds"),
				"transform.inverse_3d_s":       d.seconds("transform.inverse_3d_seconds"),
				"compress.threshold_s":         d.throughputSeconds("compress.threshold_mb_per_s", winMiB),
				"codec.encode_s":               d.throughputSeconds("compress.encode_mb_per_s", winMiB),
				"codec.decode_s":               d.throughputSeconds("compress.decode_mb_per_s", winMiB),
			}
			inner := 0.0
			for layer, secs := range stages {
				l.layers[layer] += secs
				inner += secs
			}
			l.layers["core.window_self_s"] = max(0, l.layers["core.window_self_s"]-inner)
		},
	})
}

// targetPass mirrors stcomp's compressToTarget: whole windows are
// buffered, each compressed at the most aggressive ratio in [1, 1024]
// that meets the target, then appended.
func (b *bench) targetPass(ctx context.Context, opts core.Options, paths []string, out string, lat *[]time.Duration) (int, error) {
	_, sp := obs.Start(ctx, "storage.create")
	cw, err := storage.CreateContainer(out)
	sp.End()
	if err != nil {
		return 0, err
	}
	cw.Sync = storage.SyncNever
	d := b.in.dims
	windows := 0
	pending := grid.NewWindow(d)
	flush := func() error {
		if pending.Len() == 0 {
			return nil
		}
		_, sp := obs.Start(ctx, "core.compress_to_target")
		win, _, err := core.CompressToTarget(opts, pending, targetNRMSE, 1, 1024)
		sp.End()
		if err != nil {
			return err
		}
		actx, sp := obs.Start(ctx, "storage.sink")
		_, err = cw.AppendCtx(actx, win)
		sp.End()
		if err != nil {
			return err
		}
		windows++
		pending = grid.NewWindow(d)
		return nil
	}
	for i, path := range paths {
		start := time.Now()
		_, sp := obs.Start(ctx, "grid.load")
		f, err := grid.LoadRawFile(path, d.Nx, d.Ny, d.Nz)
		sp.End()
		if err != nil {
			cw.Close()
			return 0, fmt.Errorf("loading %s: %w", path, err)
		}
		if err := pending.Append(f, float64(i)); err != nil {
			cw.Close()
			return 0, err
		}
		if pending.Len() >= opts.WindowSize {
			if err := flush(); err != nil {
				cw.Close()
				return 0, err
			}
		}
		if lat != nil {
			*lat = append(*lat, time.Since(start))
		}
	}
	if err := flush(); err != nil {
		cw.Close()
		return 0, err
	}
	_, sp = obs.Start(ctx, "storage.close")
	err = cw.Close()
	sp.End()
	return windows, err
}

// passRecord is what the checks need from one pass: the container's
// digest and window count.
type passRecord struct {
	digest  [sha256.Size]byte
	windows int
}

// runWritePath drives a write workload. Untraced, it times the set-ups,
// then runs passes for the measured seconds. Traced, it runs half the
// seconds untraced and half under one root span per pass. Either way it
// then verifies the last container window by window and requires every
// pass to have written the same bytes, which extends the verification to
// all of them (the pipeline is deterministic at any worker count).
func (b *bench) runWritePath(p *writePath) error {
	out := filepath.Join(b.dir, "out.stw")
	raw := int64(p.slices) * b.in.rawBytes()
	var passes []passRecord
	var tr tracer

	doPass := func(ctx context.Context, lat *[]time.Duration) (time.Duration, error) {
		start := time.Now()
		windows, err := p.pass(ctx, out, lat)
		elapsed := time.Since(start)
		if err != nil {
			return 0, err
		}
		digest, err := digestFile(out)
		if err != nil {
			return 0, err
		}
		passes = append(passes, passRecord{digest: digest, windows: windows})
		return elapsed, nil
	}
	// measure runs whole passes until their busy time reaches seconds and
	// returns the median over passes of the raw MiB completed per second:
	// a pass slowed by a burst of outside load moves it less than a mean.
	measure := func(seconds float64, traced bool, lat *[]time.Duration) (float64, int, error) {
		var busy time.Duration
		var rates []float64
		for len(rates) == 0 || busy.Seconds() < seconds {
			ctx := context.Background()
			var root *obs.Span
			if traced {
				ctx, root = tr.root(ctx, "bench.pass")
			}
			d, err := doPass(ctx, lat)
			root.End()
			if err != nil {
				return 0, 0, err
			}
			busy += d
			rates = append(rates, float64(raw)/mib/d.Seconds())
		}
		rate := median(rates)
		b.logf("passes: %d, MiB/s min %.4g median %.4g max %.4g", len(rates), slices.Min(rates), rate, slices.Max(rates))
		return rate, len(rates), nil
	}

	if !b.cfg.trace {
		setup := func() (time.Duration, error) { return doPass(context.Background(), nil) }
		if p.setup != nil {
			setup = func() (time.Duration, error) {
				start := time.Now()
				err := p.setup(out)
				return time.Since(start), err
			}
		}
		if err := b.timeSetups(setup); err != nil {
			return err
		}
		var lat []time.Duration
		rate, n, err := measure(b.cfg.seconds, false, &lat)
		if err != nil {
			return err
		}
		b.set("mb_s", rate, "MiB/s")
		b.setLatency("p50_ms", percentile(lat, 0.50), len(lat))
		b.setLatency("p99_ms", percentile(lat, 0.99), len(lat))
		b.set("peak_rss_mb", peakRSSMiB(), "MiB")
		b.logf("measured: %d passes of %d slices; latency samples are %s", n, p.slices, p.latencyIs)
	} else {
		if _, err := doPass(context.Background(), nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		half := b.cfg.seconds / 2
		untraced, _, err := measure(half, false, nil)
		if err != nil {
			return err
		}
		first := len(passes)
		before := snapshotRegistry()
		tr.start()
		traced, _, err := measure(half, true, nil)
		roots := tr.stop()
		if err != nil {
			return err
		}
		d := regDelta{before: before, after: snapshotRegistry()}
		l := buildLedger(roots)
		if p.adjust != nil {
			p.adjust(l, d)
		}
		b.setLedger(l)
		b.setOverhead(untraced, traced)
		windows := 0
		for _, pr := range passes[first:] {
			windows += pr.windows
		}
		if windows > 0 {
			b.set("core.compress_calls_per_window", d.counter("core.compress_windows_total")/float64(windows), "count")
		}
		b.set("grid.load_mb", float64(int64(l.counts["grid.load"])*b.in.rawBytes())/mib, "MiB")
		b.set("storage.bytes_written", d.counter("storage.write_bytes_total"), "bytes")
		b.set("storage.retries", d.counter("storage.retries_total"), "count")
		if p.afterTrace != nil {
			p.afterTrace()
		}
	}
	return b.checkWrites(p, out, raw, passes)
}

// checkWrites verifies the last container and compares every pass to it.
func (b *bench) checkWrites(p *writePath, out string, raw int64, passes []passRecord) error {
	psnr, err := b.verifyContainer(out, p.source, p.windowOK)
	if err != nil {
		return err
	}
	size, err := fileSize(out)
	if err != nil {
		return err
	}
	ref := passes[len(passes)-1]
	for i, pr := range passes {
		b.check(pr.digest == ref.digest && pr.windows == ref.windows,
			"pass %d wrote a container that differs from the verified one (%d windows vs %d)", i, pr.windows, ref.windows)
	}
	if !b.cfg.trace {
		b.set("ratio", float64(raw)/float64(size), "ratio")
		b.set("psnr_db", psnr, "dB")
	}
	b.logf("checked: %d passes against the verified container of %d windows, %d bytes; PSNR %.2f dB", len(passes), ref.windows, size, psnr)
	return nil
}

// verifyContainer CRC-verifies and decodes every window of the container
// at path and compares it with the inputs, counting one check per window.
// It returns the PSNR over the whole container.
func (b *bench) verifyContainer(path string, source func(t int) (*grid.Field3D32, error), windowOK func(float64) bool) (float64, error) {
	r, err := storage.OpenContainer(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	all := metrics.NewAccumulator()
	t := 0
	for wi := 0; wi < r.NumWindows(); wi++ {
		info, err := r.WindowInfo(wi)
		if err != nil {
			b.check(false, "window %d: header: %v", wi, err)
			return 0, nil
		}
		ok, nrmse, err := b.verifyWindow(r, wi, t, source, all)
		switch {
		case err != nil:
			b.check(false, "window %d: %v", wi, err)
		case windowOK != nil:
			b.check(windowOK(nrmse) && ok, "window %d: NRMSE %.4g misses the bound", wi, nrmse)
		default:
			b.check(ok, "window %d: decoded slice count differs from its header (%d)", wi, info.NumSlices)
		}
		t += info.NumSlices
	}
	psnr := all.PSNR()
	b.check(psnr >= psnrFloorDB && !math.IsNaN(psnr), "container PSNR %.2f dB is below the %d dB corruption floor", psnr, psnrFloorDB)
	return psnr, nil
}

// verifyWindow checks window wi's CRC, decodes it at its own precision,
// and adds its error against the inputs to all. It returns the window's
// NRMSE.
func (b *bench) verifyWindow(r *storage.ContainerReader, wi, t0 int, source func(int) (*grid.Field3D32, error), all *metrics.Accumulator) (bool, float64, error) {
	if err := r.VerifyWindow(wi); err != nil {
		return false, 0, err
	}
	cw, err := r.ReadWindow(wi)
	if err != nil {
		return false, 0, err
	}
	var decoded [][]float64
	if cw.Precision == core.Float32 {
		w, err := core.Decompress32(cw)
		if err != nil {
			return false, 0, err
		}
		for _, f := range w.Slices {
			decoded = append(decoded, f.Widen().Data)
		}
	} else {
		w, err := core.Decompress(cw)
		if err != nil {
			return false, 0, err
		}
		for _, f := range w.Slices {
			decoded = append(decoded, f.Data)
		}
	}
	win := metrics.NewAccumulator()
	for i, rec := range decoded {
		in, err := source(t0 + i)
		if err != nil {
			return false, 0, err
		}
		orig := in.Widen().Data
		if err := win.Add(orig, rec); err != nil {
			return false, 0, err
		}
		if err := all.Add(orig, rec); err != nil {
			return false, 0, err
		}
	}
	return len(decoded) == cw.NumSlices(), win.NRMSE(), nil
}

// digestFile hashes a file's bytes.
func digestFile(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}
