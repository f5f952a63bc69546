package main

import "fmt"

// declared is one metric BENCHMARK.json lists, with its unit.
type declared struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them, each for its own path (README.md, "End-to-end
// metrics"), and none can be zero on a run that did its work.
var endToEnd = []declared{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"mb_s", "MiB/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ratio", "ratio"},
	{"psnr_db", "dB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// run reports zero.
var perLayer = []declared{
	{"grid.load_s", "s"},
	{"grid.load_mb", "MiB"},
	{"transform.forward_3d_s", "s"},
	{"transform.forward_temporal_s", "s"},
	{"transform.inverse_temporal_s", "s"},
	{"transform.inverse_3d_s", "s"},
	{"compress.threshold_s", "s"},
	{"codec.encode_s", "s"},
	{"codec.decode_s", "s"},
	{"core.window_self_s", "s"},
	{"core.compress_calls_per_window", "count"},
	{"storage.append_s", "s"},
	{"storage.bytes_written", "bytes"},
	{"storage.retries", "count"},
	{"storage.read_window_s", "s"},
	{"storage.read_window_levels_s", "s"},
	{"ingest.source_s", "s"},
	{"ingest.stall_s", "s"},
	{"ingest.peak_inflight_mb", "MiB"},
	{"ingest.backpressure", "count"},
	{"server.handler_self_s", "s"},
	{"server.requests", "count"},
	{"server.errors", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced", "count"},
	{"server.decompressions", "count"},
	{"server.partial_decodes", "count"},
	{"server.progressive_bytes_saved", "bytes"},
	{"http.transport_s", "s"},
	{"serve.req_s", "1/s"},
	{"serve.scrub_p50_ms", "ms"},
	{"serve.scrub_p99_ms", "ms"},
	{"serve.preview_p50_ms", "ms"},
	{"serve.preview_p99_ms", "ms"},
	{"serve.explore_p50_ms", "ms"},
	{"serve.explore_p99_ms", "ms"},
	{"trace.unaccounted_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}

// finish keeps exactly the declared metrics of the run's mode. An
// end-to-end metric a workload failed to produce is an error; a layer a
// workload does not run reports zero.
func (b *bench) finish() error {
	want := endToEnd
	if b.cfg.trace {
		want = perLayer
	}
	kept := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := b.metrics[d.name]
		switch {
		case ok && m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", d.name, m.Unit, d.unit)
		case ok:
			kept[d.name] = m
		case b.cfg.trace:
			kept[d.name] = metric{Value: 0, Unit: d.unit}
		default:
			return fmt.Errorf("workload produced no %s", d.name)
		}
	}
	b.metrics = kept
	return nil
}

// setLedger records the traced run's per-layer seconds and coverage.
func (b *bench) setLedger(l *ledger) {
	for name, v := range l.layers {
		b.set(name, v, "s")
	}
	b.set("trace.unaccounted_frac", l.unaccountedFrac(), "frac")
	b.set("trace.spans", float64(l.spans), "count")
	b.logf("ledger: %d spans over %.3f s of root time; %.1f%% not covered by a named layer (target: at most 5%%)",
		l.spans, l.rootTotal, 100*l.unaccountedFrac())
	if len(l.unknown) > 0 {
		b.logf("ledger: spans without a layer: %s", l.unknownNames())
	}
}

// setOverhead records the cost of tracing: the traced rate's shortfall
// against the untraced rate measured in the same run.
func (b *bench) setOverhead(untraced, traced float64) {
	frac := 0.0
	if untraced > 0 {
		frac = 1 - traced/untraced
	}
	b.set("trace.overhead_frac", frac, "frac")
	b.logf("trace overhead: untraced %.4g, traced %.4g per second (%.1f%%)", untraced, traced, 100*frac)
}
