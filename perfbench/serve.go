package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/server"
	"stwave/internal/storage"
)

// The two datasets the serve workload mounts.
const (
	dsArchive = "archive" // f64, sparse, slice-major, window 20: written like the archive workload
	dsInsitu  = "insitu"  // f32, entropy, level-major, window 10: written like the ingest workload
)

// keptPerClient caps the responses each client keeps for the byte
// comparison after the run.
const keptPerClient = 16

// liveServer is one server.New instance behind a real loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer builds the server, mounts both datasets and starts
// serving; every request passes through a middleware that opens one
// root span per request while tr is recording.
func (b *bench) startServer(tr *tracer, archivePath, insituPath string) (*liveServer, error) {
	cfg := server.DefaultConfig()
	cfg.CacheBytes = b.cfg.scale.CacheBytes
	srv := server.New(cfg)
	if err := srv.Mount(dsArchive, archivePath); err != nil {
		return nil, err
	}
	if err := srv.Mount(dsInsitu, insituPath); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	ls := &liveServer{
		srv:  srv,
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		hs: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, root := tr.root(r.Context(), "server.request")
			if root != nil {
				r = r.WithContext(ctx)
				defer root.End()
			}
			h.ServeHTTP(w, r)
		})},
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close stops the listener, waits for Serve to return and closes the
// mounted containers.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serveErr := <-ls.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if cerr := ls.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one closed-loop HTTP client with a reused body buffer.
type client struct {
	hc   *http.Client
	base string
	buf  []byte
}

func newClient(base string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}, base: base}
}

// slice fetches one slice. levels < 0 asks for full resolution. The body
// aliases the client's buffer until the next call.
func (c *client) slice(dataset string, t, levels int) ([]byte, error) {
	url := fmt.Sprintf("%s/v1/%s/slice?t=%d", c.base, dataset, t)
	if levels >= 0 {
		url += fmt.Sprintf("&levels=%d", levels)
	}
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	n := int(resp.ContentLength)
	if n < 0 {
		return nil, fmt.Errorf("GET %s: no Content-Length", url)
	}
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	body := c.buf[:n]
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return body, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// kept is a response held back for the byte comparison.
type kept struct {
	dataset   string
	t, levels int
	body      []byte
}

// traffic is what one drive of the two clients produced.
type traffic struct {
	scrub, preview, explore []time.Duration
	full                    []time.Duration // the full-resolution request of each explore
	clientTime              time.Duration   // summed latency of every request
	requests, failed        int
	bytes                   int64
	elapsed                 time.Duration
	kept                    []kept
}

func (t *traffic) merge(o *traffic) {
	t.scrub = append(t.scrub, o.scrub...)
	t.preview = append(t.preview, o.preview...)
	t.explore = append(t.explore, o.explore...)
	t.full = append(t.full, o.full...)
	t.clientTime += o.clientTime
	t.requests += o.requests
	t.failed += o.failed
	t.bytes += o.bytes
	t.kept = append(t.kept, o.kept...)
}

// all is every request latency: scrub requests, previews and the full
// request of each explore.
func (t *traffic) all() []time.Duration {
	out := append([]time.Duration(nil), t.scrub...)
	out = append(out, t.preview...)
	return append(out, t.full...)
}

// drive runs the two closed-loop clients for the given seconds:
//
//   - scrub steps slice?t= through the archive dataset in order;
//   - explore picks a seeded random t in the in-situ dataset, asks for
//     slice?t=&levels=0 (the first picture) and then the full slice.
//
// Each keeps a seeded sample of its responses for the byte comparison.
func (b *bench) drive(base string, seconds float64, seed int64) *traffic {
	slices := b.cfg.scale.Slices
	fullBytes := b.in.dims.Len() * 4
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	results := [2]*traffic{{}, {}}
	var wg sync.WaitGroup
	clientLoop := func(id int, step func(c *client, tr *traffic, keep func() bool)) {
		defer wg.Done()
		c := newClient(base)
		defer c.close()
		rng := rand.New(rand.NewSource(seed*31 + int64(id)))
		tr := results[id]
		nKept := 0
		keep := func() bool {
			// The first response of each client is always kept, so every
			// run compares at least one body per dataset.
			if nKept < keptPerClient && (nKept == 0 || rng.Intn(32) == 0) {
				nKept++
				return true
			}
			return false
		}
		for time.Now().Before(deadline) {
			step(c, tr, keep)
		}
	}
	// get issues one request and accounts for it.
	get := func(c *client, tr *traffic, ds string, t, levels int, keepIt bool) (time.Duration, bool) {
		t0 := time.Now()
		body, err := c.slice(ds, t, levels)
		lat := time.Since(t0)
		tr.requests++
		tr.clientTime += lat
		if err == nil && levels < 0 && len(body) != fullBytes {
			err = fmt.Errorf("%s t=%d: %d bytes, want %d", ds, t, len(body), fullBytes)
		}
		if err != nil {
			tr.failed++
			b.logf("FAILED: %v", err)
			return lat, false
		}
		tr.bytes += int64(len(body))
		if keepIt {
			tr.kept = append(tr.kept, kept{dataset: ds, t: t, levels: levels, body: append([]byte(nil), body...)})
		}
		return lat, true
	}
	wg.Add(2)
	t := 0
	go clientLoop(0, func(c *client, tr *traffic, keep func() bool) {
		if lat, ok := get(c, tr, dsArchive, t, -1, keep()); ok {
			tr.scrub = append(tr.scrub, lat)
		}
		t = (t + 1) % slices
	})
	pick := rand.New(rand.NewSource(seed))
	go clientLoop(1, func(c *client, tr *traffic, keep func() bool) {
		ts := pick.Intn(slices)
		click := time.Now()
		plat, ok := get(c, tr, dsInsitu, ts, 0, keep())
		if !ok {
			return
		}
		if flat, ok := get(c, tr, dsInsitu, ts, -1, keep()); ok {
			tr.preview = append(tr.preview, plat)
			tr.full = append(tr.full, flat)
			tr.explore = append(tr.explore, time.Since(click))
		}
	})
	wg.Wait()
	out := &traffic{elapsed: time.Since(start)}
	out.merge(results[0])
	out.merge(results[1])
	return out
}

// reportClasses prints each latency class with its sample count and,
// when record is set, records them as serve.* metrics.
func (b *bench) reportClasses(tr *traffic, record bool) {
	classes := []struct {
		name string
		xs   []time.Duration
	}{{"scrub", tr.scrub}, {"preview", tr.preview}, {"explore", tr.explore}}
	for _, c := range classes {
		xs := append([]time.Duration(nil), c.xs...)
		p50, p99 := percentile(xs, 0.50), percentile(xs, 0.99)
		b.logf("serve: %-7s n=%-6d p50 %8.3f ms  p99 %8.3f ms", c.name, len(xs), p50, p99)
		if record {
			b.setLatency("serve."+c.name+"_p50_ms", p50, len(xs))
			b.setLatency("serve."+c.name+"_p99_ms", p99, len(xs))
		}
	}
	reqS := float64(tr.requests) / tr.elapsed.Seconds()
	b.logf("serve: %d requests in %.3f s (%.1f/s), %d failed, %.1f MiB of payload", tr.requests, tr.elapsed.Seconds(), reqS, tr.failed, float64(tr.bytes)/mib)
	if record {
		b.set("serve.req_s", reqS, "1/s")
	}
}

// runServe is the read path: a closed loop of two clients against a
// server over a real loopback listener. Both datasets are built by the
// writers in preparation; setup_s times server.New, both mounts, the
// listener and a first request cycle.
func runServe(b *bench) error {
	s := b.cfg.scale
	if err := b.genInputs(s.Slices, true); err != nil {
		return err
	}
	start := time.Now()
	archivePath := filepath.Join(b.dir, dsArchive+".stw")
	insituPath := filepath.Join(b.dir, dsInsitu+".stw")
	if _, err := b.archivePass(context.Background(), archiveOptions(0), b.in.paths, archivePath, nil); err != nil {
		return fmt.Errorf("building %s: %w", dsArchive, err)
	}
	if _, err := b.ingestPass(context.Background(), insituConfig(b.in.dims), s.Slices, insituPath, nil); err != nil {
		return fmt.Errorf("building %s: %w", dsInsitu, err)
	}
	b.dropSlices()
	b.logf("datasets: %s and %s (%d slices each) built in %.3f s (not part of setup_s); cache budget %d MiB",
		dsArchive, dsInsitu, s.Slices, time.Since(start).Seconds(), s.CacheBytes/mib)

	var tr tracer
	var live *liveServer
	defer func() {
		if live != nil {
			live.close()
		}
	}()
	// setup replaces the running server, if any, and times only the
	// new one's construction and first request cycle.
	setup := func() (time.Duration, error) {
		if live != nil {
			if err := live.close(); err != nil {
				return 0, err
			}
			live = nil
		}
		start := time.Now()
		ls, err := b.startServer(&tr, archivePath, insituPath)
		if err != nil {
			return 0, err
		}
		live = ls
		c := newClient(ls.base)
		defer c.close()
		for _, req := range []struct {
			ds        string
			t, levels int
		}{{dsArchive, 0, -1}, {dsInsitu, 0, 0}, {dsInsitu, 0, -1}} {
			if _, err := c.slice(req.ds, req.t, req.levels); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	var seen *traffic
	if !b.cfg.trace {
		if err := b.timeSetups(setup); err != nil {
			return err
		}
		seen = b.drive(live.base, b.cfg.seconds, b.cfg.seed)
		all := seen.all()
		b.set("mb_s", float64(seen.bytes)/mib/seen.elapsed.Seconds(), "MiB/s")
		b.setLatency("p50_ms", percentile(all, 0.50), len(all))
		b.setLatency("p99_ms", percentile(all, 0.99), len(all))
		b.set("peak_rss_mb", peakRSSMiB(), "MiB")
		b.reportClasses(seen, false)
	} else {
		if _, err := setup(); err != nil {
			return err
		}
		half := b.cfg.seconds / 2
		seen = b.drive(live.base, half, b.cfg.seed)
		b.reportClasses(seen, true)
		before, err := fetchMetrics(live.base)
		if err != nil {
			return err
		}
		tr.start()
		traced := b.drive(live.base, half, b.cfg.seed+1)
		roots := tr.stop()
		after, err := fetchMetrics(live.base)
		if err != nil {
			return err
		}
		l := buildLedger(roots)
		b.setLedger(l)
		b.set("http.transport_s", max(0, traced.clientTime.Seconds()-l.rootTotal), "s")
		b.setOverhead(float64(seen.requests)/seen.elapsed.Seconds(), float64(traced.requests)/traced.elapsed.Seconds())
		b.setServerCounters(before, after)
		seen.merge(traced)
	}
	// Every request is one operation; a failed one was logged as it came.
	b.attempted += seen.requests
	b.failed += seen.failed
	return b.checkServed(seen.kept, archivePath, insituPath)
}

// fetchMetrics reads the server's own counters from /metrics.
func fetchMetrics(base string) (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// setServerCounters records the change in the server's counters across
// the traced drive.
func (b *bench) setServerCounters(before, after server.MetricsSnapshot) {
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	if hits+misses > 0 {
		b.set("server.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	b.set("server.requests", float64(after.Requests-before.Requests), "count")
	b.set("server.errors", float64(after.Errors-before.Errors), "count")
	b.set("server.coalesced", float64(after.Coalesced-before.Coalesced), "count")
	b.set("server.decompressions", float64(after.Decompressions-before.Decompressions), "count")
	b.set("server.partial_decodes", float64(after.PartialDecodes-before.PartialDecodes), "count")
	b.set("server.progressive_bytes_saved", float64(after.BytesSaved-before.BytesSaved), "bytes")
}

// checkServed compares every kept response byte for byte with a direct
// core decode of the same window or level, and computes the PSNR of the
// full-resolution ones against the inputs. Responses are grouped by
// window so each window is decoded once.
func (b *bench) checkServed(ks []kept, archivePath, insituPath string) error {
	readers := map[string]*storage.ContainerReader{}
	for ds, path := range map[string]string{dsArchive: archivePath, dsInsitu: insituPath} {
		r, err := storage.OpenContainer(path)
		if err != nil {
			return err
		}
		defer r.Close()
		readers[ds] = r
	}
	var rawTotal, stored int64
	for _, r := range readers {
		starts, err := windowStarts(r)
		if err != nil {
			return err
		}
		rawTotal += int64(starts[len(starts)-1]) * b.in.rawBytes()
		for wi := 0; wi < r.NumWindows(); wi++ {
			n, err := r.WindowSizeBytes(wi)
			if err != nil {
				return err
			}
			stored += n
		}
	}

	sort.Slice(ks, func(i, j int) bool {
		if ks[i].dataset != ks[j].dataset {
			return ks[i].dataset < ks[j].dataset
		}
		if ks[i].levels != ks[j].levels {
			return ks[i].levels < ks[j].levels
		}
		return ks[i].t < ks[j].t
	})
	acc := metrics.NewAccumulator()
	var (
		cur    [][]float32 // the decoded window the sorted responses are on
		curKey string
	)
	for _, k := range ks {
		r := readers[k.dataset]
		starts, err := windowStarts(r)
		if err != nil {
			return err
		}
		wi := sort.SearchInts(starts, k.t+1) - 1
		key := fmt.Sprintf("%s/%d/%d", k.dataset, wi, k.levels)
		if key != curKey {
			cur, curKey = nil, key
			if cur, err = decodeWindow(r, wi, k.levels); err != nil {
				b.check(false, "direct decode of %s window %d: %v", k.dataset, wi, err)
				curKey = ""
				continue
			}
		}
		want := le32(cur[k.t-starts[wi]])
		b.check(bytes.Equal(k.body, want), "%s t=%d levels=%d: served bytes differ from a direct core decode", k.dataset, k.t, k.levels)
		if k.levels < 0 {
			got := make([]float64, len(k.body)/4)
			for i := range got {
				got[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(k.body[i*4:])))
			}
			in, err := b.in.slice(k.t)
			if err != nil {
				return err
			}
			if err := acc.Add(in.Widen().Data, got); err != nil {
				return err
			}
		}
	}
	psnr := acc.PSNR()
	b.check(psnr >= psnrFloorDB && !math.IsNaN(psnr), "served PSNR %.2f dB is below the %d dB corruption floor", psnr, psnrFloorDB)
	if !b.cfg.trace {
		b.set("ratio", float64(rawTotal)/float64(stored), "ratio")
		b.set("psnr_db", psnr, "dB")
	}
	b.logf("checked: %d kept responses against direct core decodes; served PSNR %.2f dB over %d full slices", len(ks), psnr, acc.Count()/int64(b.in.dims.Len()))
	return nil
}

// windowStarts lists the first global time index of every window, plus
// the total slice count as a final entry.
func windowStarts(r *storage.ContainerReader) ([]int, error) {
	starts := make([]int, 0, r.NumWindows()+1)
	t := 0
	for wi := 0; wi < r.NumWindows(); wi++ {
		info, err := r.WindowInfo(wi)
		if err != nil {
			return nil, err
		}
		starts = append(starts, t)
		t += info.NumSlices
	}
	return append(starts, t), nil
}

// decodeWindow reconstructs window wi as the server would: levels < 0 is
// the full window at its own precision, levels >= 0 the coarse prefix of
// a progressive window. Samples are returned as the float32 the wire
// carries.
func decodeWindow(r *storage.ContainerReader, wi, levels int) ([][]float32, error) {
	if levels >= 0 {
		cw, _, err := r.ReadWindowLevels(wi, levels)
		if err != nil {
			return nil, err
		}
		w, err := core.DecompressLevels32(cw, levels)
		if err != nil {
			return nil, err
		}
		return fields32(w.Slices), nil
	}
	cw, err := r.ReadWindow(wi)
	if err != nil {
		return nil, err
	}
	if cw.Precision == core.Float32 {
		w, err := core.Decompress32(cw)
		if err != nil {
			return nil, err
		}
		return fields32(w.Slices), nil
	}
	w, err := core.Decompress(cw)
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(w.Slices))
	for i, f := range w.Slices {
		out[i] = f.Narrow().Data
	}
	return out, nil
}

func fields32(fs []*grid.Field3D32) [][]float32 {
	out := make([][]float32, len(fs))
	for i, f := range fs {
		out[i] = f.Data
	}
	return out
}

// le32 encodes samples in the server's raw wire format.
func le32(data []float32) []byte {
	buf := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	return buf
}
