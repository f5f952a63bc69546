package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"stwave/internal/grid"
	"stwave/internal/sim/synth"
)

// inputs are the generated time slices: kinematic synthetic turbulence
// sampled on an N³ grid at unit time steps, held in memory at float32
// and written as raw float32 files, the stcomp input format.
//
// The mode ensemble is fixed and the seed picks where in time the series
// starts. With only a few modes, each ensemble has its own spectrum, and
// fidelity and ratio would swing with the seed by more than any bound
// could absorb; a shifted start gives every seed different slices with
// the same statistics.
type inputs struct {
	dims   grid.Dims
	slices []*grid.Field3D32 // nil once written to files
	paths  []string
}

// slice returns input slice i, from memory or from its raw file.
func (in *inputs) slice(i int) (*grid.Field3D32, error) {
	if in.slices != nil {
		return in.slices[i], nil
	}
	return grid.LoadRawFileOf[float32](in.paths[i], in.dims.Nx, in.dims.Ny, in.dims.Nz)
}

// rawBytes is the size of one input slice on disk.
func (in *inputs) rawBytes() int64 { return int64(in.dims.Len()) * 4 }

// ensembleSeed fixes the synthetic field's random modes.
const ensembleSeed = 1

// seedTimeStep spaces the series' start times: seed s starts at s times
// this many time units, far beyond the slowest mode's period.
const seedTimeStep = 997

// genInputs samples the field from the seed's start time, keeping the
// slices in memory and, with writeFiles, writing each as a raw file. It
// runs before any set-up is timed; its cost is printed on its own line.
func (b *bench) genInputs(count int, writeFiles bool) error {
	start := time.Now()
	s := b.cfg.scale
	cfg := synth.DefaultConfig()
	cfg.Modes = s.Modes
	cfg.Seed = ensembleSeed
	t0 := float64(b.cfg.seed * seedTimeStep)
	field, err := synth.NewField(cfg)
	if err != nil {
		return err
	}
	in := &inputs{dims: grid.Dims{Nx: s.N, Ny: s.N, Nz: s.N}, slices: make([]*grid.Field3D32, count)}
	if writeFiles {
		in.paths = make([]string, count)
	}
	workers := min(runtime.GOMAXPROCS(0), count)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < count; i += workers {
				f := grid.NewField3D32(s.N, s.N, s.N)
				if err := field.SampleScalarInto32(f, t0+float64(i)); err != nil {
					errs[w] = err
					return
				}
				in.slices[i] = f
				if writeFiles {
					p := filepath.Join(b.dir, fmt.Sprintf("slice-%04d.raw", i))
					if err := f.SaveRawFile(p); err != nil {
						errs[w] = err
						return
					}
					in.paths[i] = p
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("generating inputs: %w", err)
		}
	}
	// Collect the generator's garbage so it does not linger into set-up.
	runtime.GC()
	b.in = in
	b.logf("inputs: %d slices of %v (modes=%d, t0=%g), %.1f MiB raw float32, generated in %.3f s (not part of setup_s)",
		count, in.dims, s.Modes, t0, float64(int64(count)*in.rawBytes())/mib, time.Since(start).Seconds())
	return nil
}

// dropSlices leaves the inputs only in their raw files, as they are for
// stcomp, so they no longer inflate the heap the program's garbage
// collector paces itself against.
func (b *bench) dropSlices() {
	b.in.slices = nil
	runtime.GC()
}

// fileSize is the size of a file in bytes.
func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
