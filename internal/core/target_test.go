package core

import (
	"bytes"
	"math"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/obs"
)

func TestCompressToTargetMeetsBound(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	w := coherentWindow(d, 20, 0.4)
	opts := DefaultOptions()
	for _, target := range []float64{1e-2, 1e-3, 1e-4} {
		cw, achieved, err := CompressToTarget(opts, w, target, 1, 512)
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		if achieved > target {
			t.Errorf("target %g: achieved NRMSE %g exceeds target", target, achieved)
		}
		// Verify the reported error against a fresh decompression.
		recon, err := Decompress(cw)
		if err != nil {
			t.Fatal(err)
		}
		ac := metrics.NewAccumulator()
		for i := range w.Slices {
			if err := ac.Add(w.Slices[i].Data, recon.Slices[i].Data); err != nil {
				t.Fatal(err)
			}
		}
		if math.Abs(ac.NRMSE()-achieved) > 1e-12 {
			t.Errorf("target %g: reported %g but recomputed %g", target, achieved, ac.NRMSE())
		}
	}
}

func TestCompressToTargetPrefersTighterRatios(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 12}
	w := coherentWindow(d, 20, 0.2)
	opts := DefaultOptions()
	loose, _, err := CompressToTarget(opts, w, 1e-2, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	tight, _, err := CompressToTarget(opts, w, 1e-5, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	if loose.RetainedCoefficients() >= tight.RetainedCoefficients() {
		t.Errorf("loose target retained %d coefficients, tight retained %d — loose should keep fewer",
			loose.RetainedCoefficients(), tight.RetainedCoefficients())
	}
}

func TestCompressToTargetUnreachable(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(d, 10, 0.1)
	opts := DefaultOptions()
	opts.WindowSize = 10
	// With minRatio 64 even the loosest setting cannot hit 1e-12 NRMSE.
	cw, achieved, err := CompressToTarget(opts, w, 1e-12, 64, 512)
	if err == nil {
		t.Fatalf("expected unreachable-target error, got NRMSE %g", achieved)
	}
	if cw == nil || cw.Opts.Ratio != 64 {
		t.Fatalf("unreachable target must still return the minimum-ratio window, got %+v", cw)
	}
	// It is the window a plain compress at the minimum ratio writes, with
	// that window's measured NRMSE.
	opts.Ratio = 64
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	recon, want, err := comp.RoundTrip(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeWindow(t, cw), serializeWindow(t, want)) {
		t.Error("unreachable-target window differs from a plain compress at the minimum ratio")
	}
	ac := metrics.NewAccumulator()
	for i := range w.Slices {
		if err := ac.Add(w.Slices[i].Data, recon.Slices[i].Data); err != nil {
			t.Fatal(err)
		}
	}
	if ac.NRMSE() != achieved {
		t.Errorf("reported NRMSE %g, measured %g", achieved, ac.NRMSE())
	}
}

func TestCompressToTargetValidation(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(d, 10, 0)
	opts := DefaultOptions()
	opts.WindowSize = 10
	if _, _, err := CompressToTarget(opts, w, 0, 1, 128); err == nil {
		t.Error("expected error for zero target")
	}
	if _, _, err := CompressToTarget(opts, w, 1e-3, 0.5, 128); err == nil {
		t.Error("expected error for minRatio < 1")
	}
	if _, _, err := CompressToTarget(opts, w, 1e-3, 128, 8); err == nil {
		t.Error("expected error for inverted range")
	}
	opts.MaxErr = 1e-2
	if _, _, err := CompressToTarget(opts, w, 1e-3, 1, 64); err == nil {
		t.Error("MaxErr with a target NRMSE accepted")
	}
}

func TestDecompressSliceMatchesFull(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 10, Nz: 8}
	w := coherentWindow(d, 18, 0.6)
	opts := DefaultOptions()
	opts.WindowSize = 18
	opts.Ratio = 16
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := comp.CompressWindow(w)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	for _, slice := range []int{0, 5, 17} {
		single, err := DecompressSlice(cw, slice)
		if err != nil {
			t.Fatal(err)
		}
		for i := range single.Data {
			if single.Data[i] != full.Slices[slice].Data[i] {
				t.Fatalf("slice %d sample %d: DecompressSlice %g != full %g",
					slice, i, single.Data[i], full.Slices[slice].Data[i])
			}
		}
	}
}

func TestDecompressSliceWorksFor3DMode(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(d, 1, 0)
	opts := Options{Mode: Spatial3D, SpatialKernel: DefaultOptions().SpatialKernel, Ratio: 8, SpatialLevels: -1}
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := comp.CompressWindow(w)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecompressSlice(cw, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if f.Data[i] != full.Slices[0].Data[i] {
			t.Fatal("3D-mode DecompressSlice differs from full decompress")
		}
	}
}

func TestDecompressSliceValidation(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(d, 5, 0)
	opts := DefaultOptions()
	opts.WindowSize = 5
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := comp.CompressWindow(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressSlice(cw, -1); err == nil {
		t.Error("expected error for negative index")
	}
	if _, err := DecompressSlice(cw, 5); err == nil {
		t.Error("expected error for out-of-range index")
	}
}

// TestCompressToTargetRecordsProbes: every probe records the registry
// signals of one compress and one decompress, and the probe count lands
// in the window and in the core.target_probes histogram.
func TestCompressToTargetRecordsProbes(t *testing.T) {
	w := coherentWindow(grid.Dims{Nx: 12, Ny: 12, Nz: 12}, 8, 0.2)
	opts := DefaultOptions()
	opts.WindowSize = 8
	reg := obs.Default()
	before := reg.Snapshot()
	cw, _, err := CompressToTarget(opts, w, 1e-3, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()
	if cw.Probes < 1 || cw.Probes > 2*8+1 {
		t.Fatalf("window reports %d probes", cw.Probes)
	}
	for _, name := range []string{"core.compress_windows_total", "core.decompress_windows_total"} {
		if got := after.Counters[name] - before.Counters[name]; got != int64(cw.Probes) {
			t.Errorf("%s rose by %d over %d probes", name, got, cw.Probes)
		}
	}
	for _, name := range []string{"compress.threshold_mb_per_s", "compress.encode_mb_per_s", "compress.decode_mb_per_s"} {
		if got := after.Histograms[name].Count - before.Histograms[name].Count; got != int64(cw.Probes) {
			t.Errorf("%s gained %d samples over %d probes", name, got, cw.Probes)
		}
	}
	h := after.Histograms["core.target_probes"]
	if got := h.Count - before.Histograms["core.target_probes"].Count; got != 1 {
		t.Errorf("core.target_probes gained %d samples, want 1", got)
	}
	if got := h.Sum - before.Histograms["core.target_probes"].Sum; got != float64(cw.Probes) {
		t.Errorf("core.target_probes sum rose by %g, want %d", got, cw.Probes)
	}
}
