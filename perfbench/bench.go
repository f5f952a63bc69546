package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bench carries one run's configuration, inputs and results.
type bench struct {
	cfg config
	dir string // private scratch directory, removed when the run ends
	in  *inputs

	outMu sync.Mutex // logf runs on the serve clients' goroutines too
	out   io.Writer

	metrics   map[string]metric
	samples   map[string]int // sample count behind each latency metric, for the text report
	attempted int
	failed    int
}

func newBench(cfg config, dir string, out io.Writer) *bench {
	return &bench{cfg: cfg, dir: dir, out: out, metrics: map[string]metric{}, samples: map[string]int{}}
}

func (b *bench) logf(format string, args ...any) {
	b.outMu.Lock()
	defer b.outMu.Unlock()
	fmt.Fprintf(b.out, format+"\n", args...)
}

// set records a metric.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// setLatency records a latency percentile with the count it came from.
func (b *bench) setLatency(name string, v float64, n int) {
	b.set(name, v, "ms")
	b.samples[name] = n
}

// check counts one attempted operation and, if ok is false, one failure
// described by the message.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.logf("FAILED: "+format, args...)
	}
}

func (b *bench) result() *result {
	return &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
}

func (b *bench) printMetrics() {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		line := fmt.Sprintf("metric %-34s %14.6g %s", n, m.Value, m.Unit)
		if c, ok := b.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		b.logf("%s", line)
	}
	b.logf("operations: %d attempted, %d failed", b.attempted, b.failed)
}

// printEnv records the machine the numbers were taken on.
func (b *bench) printEnv() {
	b.logf("env: workload=%s seed=%d seconds=%g trace=%v", b.cfg.workload, b.cfg.seed, b.cfg.seconds, b.cfg.trace)
	b.logf("env: cores=%d GOMAXPROCS=%d go=%s os=%s/%s llc=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, llcSize())
	largest := float64(b.cfg.scale.Slices*b.cfg.scale.N*b.cfg.scale.N*b.cfg.scale.N*4) / mib
	b.logf("env: bytes-moved figures (grid.load_mb, storage.bytes_written, mb_s) are computed from array sizes, "+
		"not measured; the largest working array is %.0f MiB and no figure here is a memory-bandwidth claim", largest)
}

// llcSize reports the largest CPU cache the kernel lists, as it lists it.
func llcSize() string {
	best, bestLevel := "unknown", -1
	for i := 0; i < 8; i++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lvl, err := os.ReadFile(base + "level")
		if err != nil {
			break
		}
		size, err := os.ReadFile(base + "size")
		if err != nil {
			continue
		}
		var l int
		if _, err := fmt.Sscanf(strings.TrimSpace(string(lvl)), "%d", &l); err == nil && l > bestLevel {
			best, bestLevel = fmt.Sprintf("L%d %s", l, strings.TrimSpace(string(size))), l
		}
	}
	return best
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile is the nearest-rank q-th percentile (0 < q <= 1) of xs in
// milliseconds. xs is sorted in place.
func percentile(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	rank = max(0, min(rank, len(xs)-1))
	return float64(xs[rank]) / float64(time.Millisecond)
}

// median of float64 values (copied, not reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timeSetups runs fn cfg.scale.Setups times and records the median of
// the durations it returns as setup_s. Each call builds the program and
// runs its first cycle, and times just that.
func (b *bench) timeSetups(fn func() (time.Duration, error)) error {
	var secs []float64
	for i := 0; i < b.cfg.scale.Setups; i++ {
		d, err := fn()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, d.Seconds())
	}
	b.set("setup_s", median(secs), "s")
	b.samples["setup_s"] = len(secs)
	return nil
}

const mib = 1 << 20
