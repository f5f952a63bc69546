package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"stwave/internal/codec"
	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/ingest"
	"stwave/internal/obs"
	"stwave/internal/storage"
)

// insituWindow is the window length of the in-situ path.
const insituWindow = 10

// insituConfig is the in-situ engine of the ingest and serve workloads:
// f32, entropy codec, level-major layout, window 10, ratio 32, one
// pipeline worker per core, a budget of three raw windows in flight and
// the stall policy.
func insituConfig(dims grid.Dims) ingest.Config {
	opts := core.DefaultOptions()
	opts.WindowSize = insituWindow
	opts.Ratio = 32
	opts.Progressive = true
	opts.Codec = codec.Entropy()
	return ingest.Config{
		Opts:      opts,
		Workers:   runtime.GOMAXPROCS(0),
		MemBudget: 3 * insituWindow * int64(dims.Len()) * 4,
		Policy:    ingest.PolicyStall,
	}
}

// replay is the benchmark's own ingest.SourceOf[float32]. It replays the
// pre-generated slices forward, then backward, then forward again, so
// the solver's cost stays out of the measurement and consecutive slices
// stay temporally coherent across the turn. It times each hand-off step,
// from one Next call to the next: filling the engine's buffer plus the
// time the engine holds the simulation before asking for more.
type replay struct {
	in    *inputs
	ctx   context.Context // carries the pass's root span when traced
	total int             // Next calls the engine will make
	step  int
	steps *[]time.Duration

	lastEntry time.Time
	stall     *obs.Span
}

func newReplay(ctx context.Context, in *inputs, total int, steps *[]time.Duration) *replay {
	return &replay{in: in, ctx: ctx, total: total, steps: steps}
}

// replayIndex maps a replay step to the input slice it replays, out of
// n: 0, 1, ..., n-1, n-2, ..., 1, 0, 1, ...
func replayIndex(step, n int) int {
	if n == 1 {
		return 0
	}
	period := 2 * (n - 1)
	k := step % period
	if k < n {
		return k
	}
	return period - k
}

func (r *replay) Dims() grid.Dims { return r.in.dims }

func (r *replay) Next(dst *grid.Field3D32) (float64, error) {
	now := time.Now()
	r.stall.End()
	if !r.lastEntry.IsZero() && r.steps != nil {
		*r.steps = append(*r.steps, now.Sub(r.lastEntry))
	}
	r.lastEntry = now
	_, sp := obs.Start(r.ctx, "ingest.next")
	src := r.in.slices[replayIndex(r.step, len(r.in.slices))]
	if len(dst.Data) != len(src.Data) {
		sp.End()
		return 0, fmt.Errorf("replay: destination holds %d samples, slice has %d", len(dst.Data), len(src.Data))
	}
	copy(dst.Data, src.Data)
	t := float64(r.step)
	r.step++
	sp.End()
	// The gap after the last Next is the pipeline draining, not a hold
	// on the simulation.
	r.stall = nil
	if r.step < r.total {
		_, r.stall = obs.Start(r.ctx, "ingest.stall")
	}
	return t, nil
}

func (r *replay) Skip() (float64, error) {
	t := float64(r.step)
	r.step++
	return t, nil
}

// runIngest is the in-situ path: ingest.NewEngine32 streams IngestPass
// slices from the replay source into a container per pass.
func runIngest(b *bench) error {
	s := b.cfg.scale
	if err := b.genInputs(s.Slices, false); err != nil {
		return err
	}
	cfg := insituConfig(b.in.dims)
	wantWindows := (s.IngestPass + insituWindow - 1) / insituWindow
	var (
		peak     int64
		pressure int
	)
	winMiB := float64(insituWindow*b.in.dims.Len()*4) / mib
	return b.runWritePath(&writePath{
		slices:    s.IngestPass,
		latencyIs: "hand-off steps from one Next call to the next: the fill plus how long the engine holds the simulation",
		pass: func(ctx context.Context, out string, lat *[]time.Duration) (int, error) {
			st, err := b.ingestPass(ctx, cfg, s.IngestPass, out, lat)
			if err != nil {
				return 0, err
			}
			peak = max(peak, st.PeakInFlightBytes)
			pressure += st.Backpressure
			if st.WindowsShed != 0 || st.WindowsAppended != wantWindows {
				return 0, fmt.Errorf("ingest appended %d windows and shed %d, want %d and 0", st.WindowsAppended, st.WindowsShed, wantWindows)
			}
			return st.WindowsAppended, nil
		},
		source: func(t int) (*grid.Field3D32, error) { return b.in.slices[replayIndex(t, len(b.in.slices))], nil },
		// The engine's compress workers run under context.Background, so
		// their stages record registry timings but no spans. They run
		// beside the producer, so they add busy time outside the root.
		adjust: func(l *ledger, d regDelta) {
			f3 := d.seconds("transform.forward_3d_seconds")
			ft := d.seconds("transform.forward_temporal_seconds")
			th := d.throughputSeconds("compress.threshold_mb_per_s", winMiB)
			en := d.throughputSeconds("compress.encode_mb_per_s", winMiB)
			l.layers["transform.forward_3d_s"] += f3
			l.layers["transform.forward_temporal_s"] += ft
			l.layers["compress.threshold_s"] += th
			l.layers["codec.encode_s"] += en
			l.layers["core.window_self_s"] += max(0, d.seconds("ingest.compress_seconds")-f3-ft-th-en)
			l.layers["storage.append_s"] += d.seconds("ingest.append_seconds")
		},
		// Over every pass of the run, set-up and warm-up included.
		afterTrace: func() {
			b.set("ingest.peak_inflight_mb", float64(peak)/mib, "MiB")
			b.set("ingest.backpressure", float64(pressure), "count")
		},
	})
}

// ingestPass runs one engine over one container: the path stcomp ingest
// takes, with the replay source in place of a solver.
func (b *bench) ingestPass(ctx context.Context, cfg ingest.Config, slices int, out string, steps *[]time.Duration) (ingest.Stats, error) {
	_, sp := obs.Start(ctx, "storage.create")
	cw, err := storage.CreateContainer(out)
	sp.End()
	if err != nil {
		return ingest.Stats{}, err
	}
	cw.Sync = storage.SyncNever
	eng, err := ingest.NewEngine32(cfg, b.in.dims, cw)
	if err != nil {
		cw.Close()
		return ingest.Stats{}, err
	}
	st, err := eng.Run(newReplay(ctx, b.in, slices, steps), slices)
	if err != nil {
		cw.Close()
		return st, err
	}
	_, sp = obs.Start(ctx, "storage.close")
	err = cw.Close()
	sp.End()
	return st, err
}
