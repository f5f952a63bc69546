package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"stwave/internal/obs"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test compares.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload once per mode at tiny sizes and requires
// correct outputs and exactly the metric names and units BENCHMARK.json
// declares.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	var specWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	sort.Strings(specWorkloads)
	if !slices.Equal(specWorkloads, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", specWorkloads, workloadNames())
	}
	units := func(trace bool) map[string]string {
		m := map[string]string{}
		if trace {
			for _, d := range spec.PerLayer {
				m[d.Name] = d.Unit
			}
		} else {
			for _, d := range spec.EndToEnd {
				m[d.Name] = d.Unit
			}
		}
		return m
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			var log strings.Builder
			cfg := config{workload: w, seed: 7, seconds: 0.4, trace: trace, workDir: t.TempDir(), scale: tinyScale}
			res, err := run(cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := units(trace)
			for name, m := range res.Metrics {
				u, ok := want[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: emits undeclared metric %s", w, trace, name)
				case u != m.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w, trace, name, m.Unit, u)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", w, name)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: does not emit %s", w, trace, name)
				}
			}
		}
	}
}

// TestReplayIndex pins the forward-backward replay order.
func TestReplayIndex(t *testing.T) {
	var got []int
	for step := 0; step < 9; step++ {
		got = append(got, replayIndex(step, 4))
	}
	if want := []int{0, 1, 2, 3, 2, 1, 0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("replay order %v, want %v", got, want)
	}
}

// TestSelfSeconds checks that overlapping children are subtracted once
// and that a child running past its parent is clipped.
func TestSelfSeconds(t *testing.T) {
	n := obs.SpanTree{StartMs: 0, DurationMs: 100, Children: []obs.SpanTree{
		{StartMs: 10, DurationMs: 30}, // 10..40
		{StartMs: 20, DurationMs: 30}, // 20..50, overlaps the first
		{StartMs: 90, DurationMs: 30}, // 90..120, clipped to 90..100
	}}
	if got, want := selfSeconds(n), (100.0-40-10)/1000; math.Abs(got-want) > 1e-12 {
		t.Fatalf("self time %g s, want %g s", got, want)
	}
}
