package core

import (
	"context"
	"fmt"
	"time"

	"stwave/internal/codec"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/transform"
)

// slabWindow carves a window of t slices of dims out of one backing slab,
// returning the window and its per-slice data views. The slab's contents
// are left as they are.
func slabWindow[F num.Float](slab []F, dims grid.Dims, t int, times []float64) (*grid.WindowOf[F], [][]F) {
	s := dims.Len()
	fields := make([]grid.Field3DOf[F], t)
	slices := make([]*grid.Field3DOf[F], t)
	datas := make([][]F, t)
	for i := range fields {
		d := slab[i*s : (i+1)*s : (i+1)*s]
		fields[i] = grid.Field3DOf[F]{Dims: dims, Data: d}
		slices[i] = &fields[i]
		datas[i] = d
	}
	return &grid.WindowOf[F]{Dims: dims, Slices: slices, Times: times}, datas
}

// verifier is the inner loop the two error-verified rate modes share:
// CompressToTarget's ratio search and the MaxErr bound. The window's
// forward transform is computed once and kept read-only in coeffs. Each
// probe restores it into one pooled working slab, thresholds it, encodes
// it exactly as the window will be stored, then decodes that stream back
// into the same slab and inverts the transform. The caller measures error
// on recon, so the check runs on the written stream, codec quantization
// included. Two window-sized slabs in all: coeffs (the caller's) and the
// working slab.
type verifier struct {
	opts     Options
	spec     transform.Spec
	coeffs   [][]float64
	slab     []float64
	datas    [][]float64
	recon    *grid.Window
	rawBytes int64
}

// newVerifier prepares probes of the window orig, whose forward transform
// under spec is coeffs. Call release when done.
func newVerifier(opts Options, orig *grid.Window, coeffs [][]float64, spec transform.Spec) *verifier {
	t, s := len(coeffs), orig.Dims.Len()
	slab := scratch.Floats(t * s)
	recon, datas := slabWindow(slab, orig.Dims, t, orig.Times)
	return &verifier{
		opts:     opts,
		spec:     spec,
		coeffs:   coeffs,
		slab:     slab,
		datas:    datas,
		recon:    recon,
		rawBytes: int64(t) * int64(s) * 8,
	}
}

// release returns the working slab to the pool.
func (v *verifier) release() { scratch.PutFloats(v.slab) }

// probe runs one threshold → encode → decode → inverse round on a fresh
// copy of the coefficients, on up to workers goroutines. threshold zeroes
// the coefficients to drop in place. probe returns the encoded blocks in
// the layout Options selects and leaves the reconstruction of exactly
// those blocks in v.recon. Each stage records the span and registry
// throughput a plain compress or decompress records.
func (v *verifier) probe(ctx context.Context, workers int, threshold func(datas [][]float64) error) ([]codec.Block, [][]codec.Block, error) {
	par.For(len(v.datas), workers, 1, func(start, end int) {
		for i := start; i < end; i++ {
			copy(v.datas[i], v.coeffs[i])
		}
	})

	_, sp := obs.Start(ctx, "core.threshold")
	start := time.Now()
	err := threshold(v.datas)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	observeThroughput("compress.threshold_mb_per_s", v.rawBytes, time.Since(start))

	cdc := v.opts.codec()
	levels := v.spec.SpatialLevels
	var blocks []codec.Block
	var levelBlocks [][]codec.Block
	_, sp = obs.Start(ctx, "core.encode")
	start = time.Now()
	if v.opts.Progressive {
		levelBlocks, err = encodeProgressiveOf(cdc, v.datas, v.recon.Dims, levels, workers)
	} else if blocks, err = cdc.EncodeSlices(v.datas, workers); err != nil {
		err = fmt.Errorf("core: %s encode: %w", cdc.Name(), err)
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start)
	observeThroughput("compress.encode_mb_per_s", v.rawBytes, elapsed)
	observeThroughput("codec.encode_mb_per_s."+cdc.Name(), v.rawBytes, elapsed)

	// Decode the blocks just encoded into the working slab: the verified
	// stream is the written stream.
	_, sp = obs.Start(ctx, "core.decode_blocks")
	start = time.Now()
	if v.opts.Progressive {
		tmp := &CompressedWindow{Dims: v.recon.Dims, SpatialLevels: levels, LevelBlocks: levelBlocks}
		err = scatterLevels(tmp, v.datas, v.recon.Dims, 0, levels, workers)
	} else {
		t := len(v.datas)
		errs := make([]error, t)
		outer, inner := par.Split(workers, t)
		par.For(t, outer, 1, func(start, end int) {
			for i := start; i < end; i++ {
				errs[i] = blocks[i].DecodeInto(v.datas[i], inner)
			}
		})
		err = firstErr(errs)
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	elapsed = time.Since(start)
	observeThroughput("compress.decode_mb_per_s", v.rawBytes, elapsed)
	observeThroughput("codec.decode_mb_per_s."+cdc.Name(), v.rawBytes, elapsed)

	if err := transform.Inverse4DCtx(ctx, v.recon, v.spec); err != nil {
		return nil, nil, fmt.Errorf("core: verification inverse transform: %w", err)
	}
	return blocks, levelBlocks, nil
}

// firstErr returns the first non-nil error of a per-slice result list.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
