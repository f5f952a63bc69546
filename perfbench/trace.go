package main

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"

	"stwave/internal/obs"
)

// tracer collects the span roots the benchmark opens while tracing is
// on. The program attaches its own spans (xform.*, core.threshold,
// core.encode, core.decode_blocks, storage.*, cache.lookup) under any
// root carried by the context it is handed, so the ledger needs nothing
// added inside the program.
type tracer struct {
	mu    sync.Mutex
	on    bool
	roots []*obs.Span
}

// start turns recording on; roots opened before it are not collected.
func (t *tracer) start() {
	t.mu.Lock()
	t.on, t.roots = true, nil
	t.mu.Unlock()
}

// stop turns recording off and returns the collected roots.
func (t *tracer) stop() []*obs.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = false
	roots := t.roots
	t.roots = nil
	return roots
}

// root opens a root span when recording is on; otherwise it returns ctx
// and a nil span, and every obs.Start under ctx is a no-op.
func (t *tracer) root(ctx context.Context, name string) (context.Context, *obs.Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return ctx, nil
	}
	ctx, sp := obs.StartRoot(ctx, name)
	if sp != nil {
		t.roots = append(t.roots, sp)
	}
	return ctx, sp
}

// spanLayer maps every span name the traced workloads produce to the
// per-layer metric its self time is charged to. Root spans are listed in
// rootLayer instead.
var spanLayer = map[string]string{
	"grid.load":                  "grid.load_s",
	"core.new_writer":            "core.window_self_s",
	"core.write_slice":           "core.window_self_s",
	"core.flush":                 "core.window_self_s",
	"core.compress_window":       "core.window_self_s",
	"core.compress_to_target":    "core.window_self_s",
	"core.decompress":            "core.window_self_s",
	"xform.forward_3d":           "transform.forward_3d_s",
	"xform.forward_temporal":     "transform.forward_temporal_s",
	"xform.inverse_temporal":     "transform.inverse_temporal_s",
	"xform.inverse_3d":           "transform.inverse_3d_s",
	"core.threshold":             "compress.threshold_s",
	"core.threshold_maxerr":      "compress.threshold_s",
	"core.encode":                "codec.encode_s",
	"core.decode_blocks":         "codec.decode_s",
	"core.decompress_levels":     "codec.decode_s", // its self time is the level-group block decode and scatter
	"core.decompress_slice":      "codec.decode_s",
	"storage.create":             "storage.append_s",
	"storage.sink":               "storage.append_s",
	"storage.append_window":      "storage.append_s",
	"storage.close":              "storage.append_s",
	"storage.read_window":        "storage.read_window_s",
	"storage.read_window_levels": "storage.read_window_levels_s",
	"ingest.next":                "ingest.source_s",
	"ingest.stall":               "ingest.stall_s",
	"cache.lookup":               "server.handler_self_s",
}

// rootLayer names the layer a root span's own self time belongs to, for
// roots that are a layer themselves. The write-path roots are the
// benchmark's loop, so their self time is only counted as unaccounted.
var rootLayer = map[string]string{
	"server.request": "server.handler_self_s",
}

// ledger is the per-layer split of the traced roots.
type ledger struct {
	layers    map[string]float64 // seconds of self time per layer metric
	rootTotal float64            // seconds inside root spans
	rootSelf  float64            // seconds of root spans no child covers
	unknown   map[string]float64 // self seconds of spans no layer claims
	counts    map[string]int     // spans seen per name
	spans     int
}

func buildLedger(roots []*obs.Span) *ledger {
	l := &ledger{layers: map[string]float64{}, unknown: map[string]float64{}, counts: map[string]int{}}
	for _, r := range roots {
		tree := r.Tree()
		self := selfSeconds(tree)
		l.spans++
		l.rootTotal += tree.DurationMs / 1000
		l.rootSelf += self
		if layer, ok := rootLayer[tree.Name]; ok {
			l.layers[layer] += self
		}
		for _, c := range tree.Children {
			l.walk(c)
		}
	}
	return l
}

func (l *ledger) walk(n obs.SpanTree) {
	l.spans++
	l.counts[n.Name]++
	if layer, ok := spanLayer[n.Name]; ok {
		l.layers[layer] += selfSeconds(n)
	} else {
		l.unknown[n.Name] += selfSeconds(n)
	}
	for _, c := range n.Children {
		l.walk(c)
	}
}

// unaccountedFrac is the share of root time no named layer span covers:
// the roots' own self time plus spans the ledger does not recognise.
func (l *ledger) unaccountedFrac() float64 {
	if l.rootTotal <= 0 {
		return 0
	}
	u := l.rootSelf
	for _, s := range l.unknown {
		u += s
	}
	return u / l.rootTotal
}

// unknownNames lists spans no layer claims, for the text report.
func (l *ledger) unknownNames() string {
	names := make([]string, 0, len(l.unknown))
	for n := range l.unknown {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// selfSeconds is a span's duration minus the part of it its children
// cover. Children that ran in parallel are merged first, so overlapping
// children are not subtracted twice.
func selfSeconds(n obs.SpanTree) float64 {
	lo, hi := n.StartMs, n.StartMs+n.DurationMs
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		a, b := max(c.StartMs, lo), min(c.StartMs+c.DurationMs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return max(0, n.DurationMs-covered) / 1000
}

// regDelta is the change in the process-wide registry across a traced
// interval. Stages that run where the program drops the caller's context
// (the rate-control loop of CompressToTarget, the ingest engine's
// compress workers) record no spans, but they do record these timings.
type regDelta struct{ before, after obs.Snapshot }

func snapshotRegistry() obs.Snapshot { return obs.Default().Snapshot() }

func (d regDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// seconds is the change in the sum of the histogram of durations called
// name and of every histogram named name plus a dot-separated suffix (the
// per-kernel variants).
func (d regDelta) seconds(name string) float64 {
	sum := 0.0
	for n, h := range d.after.Histograms {
		if n == name || strings.HasPrefix(n, name+".") {
			sum += h.Sum - d.before.Histograms[n].Sum
		}
	}
	return sum
}

// throughputSeconds estimates the busy seconds behind a histogram of
// per-window throughputs in MiB/s when every window moved mibPerWindow.
// Each observation is taken at the geometric middle of its power-of-two
// bucket, so the estimate is within a factor of sqrt(2) of the truth. It
// is used only where no span exists.
func (d regDelta) throughputSeconds(name string, mibPerWindow float64) float64 {
	counts := map[float64]int64{}
	for _, bk := range d.after.Histograms[name].Buckets {
		counts[bk.UpperBound] += bk.Count
	}
	for _, bk := range d.before.Histograms[name].Buckets {
		counts[bk.UpperBound] -= bk.Count
	}
	secs := 0.0
	for le, n := range counts {
		if n > 0 {
			secs += float64(n) * mibPerWindow / (le / math.Sqrt2)
		}
	}
	return secs
}
