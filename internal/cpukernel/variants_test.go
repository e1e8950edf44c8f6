// Package cpukernel is a test-only semantic oracle: the paper's
// optimization families as CPU-executable loop transformations over the
// reference grid (spatial tiling, block and cyclic merging, plane
// streaming, overlapped temporal blocking). The GPU substrate
// (internal/sim) models the *cost* of these transformations; this
// package executes their *semantics*, and its tests prove each variant
// computes bit-identical results to stencil.ApplySteps. It has no
// product code: nothing on collect → train → serve runs it.
package cpukernel

import (
	"fmt"

	"stencilmart/internal/stencil"
)

// Variant identifies an executable optimization scheme.
type Variant int

// The executable variants.
const (
	// VariantNaive is one thread of straightforward sweeps.
	VariantNaive Variant = iota
	// VariantTiled sweeps in cache-sized spatial tiles.
	VariantTiled
	// VariantBlockMerged processes merge-sized runs of adjacent points
	// per inner iteration (BM).
	VariantBlockMerged
	// VariantCyclicMerged processes points strided by the grid extent
	// over merge passes (CM).
	VariantCyclicMerged
	// VariantStreaming marches planes along the outermost dimension,
	// reusing the loaded working set (ST).
	VariantStreaming
	// VariantTemporal fuses several time steps per tile with overlapped
	// halos (TB).
	VariantTemporal
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case VariantNaive:
		return "naive"
	case VariantTiled:
		return "tiled"
	case VariantBlockMerged:
		return "block-merged"
	case VariantCyclicMerged:
		return "cyclic-merged"
	case VariantStreaming:
		return "streaming"
	case VariantTemporal:
		return "temporal"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options tunes the transformed loops.
type Options struct {
	// TileX and TileY are spatial tile extents; 0 means 32.
	TileX, TileY int
	// Merge is the merging factor for the merged variants; 0 means 4.
	Merge int
	// TBDepth is the fused step count for VariantTemporal; 0 means 2.
	TBDepth int
}

func (o *Options) setDefaults() {
	if o.TileX == 0 {
		o.TileX = 32
	}
	if o.TileY == 0 {
		o.TileY = 32
	}
	if o.Merge == 0 {
		o.Merge = 4
	}
	if o.TBDepth == 0 {
		o.TBDepth = 2
	}
}

// Run executes steps sweeps of the stencil with the chosen variant,
// returning the resulting grid. All variants implement exactly the
// semantics of stencil.ApplySteps (interior update, halo ring copied).
func Run(v Variant, s stencil.Stencil, coeffs stencil.Coefficients, in *stencil.Grid, steps int, opts Options) (*stencil.Grid, error) {
	opts.setDefaults()
	if steps < 1 {
		return nil, fmt.Errorf("cpukernel: steps %d < 1", steps)
	}
	switch v {
	case VariantNaive:
		return stencil.ApplySteps(s, coeffs, in, steps, false)
	case VariantTemporal:
		return temporalBlocked(s, coeffs, in, steps, opts)
	default:
		cur := in.Clone()
		next := stencil.NewGrid(in.Nx, in.Ny, in.Nz)
		for t := 0; t < steps; t++ {
			var err error
			switch v {
			case VariantTiled:
				err = sweepTiled(s, coeffs, cur, next, opts)
			case VariantBlockMerged:
				err = sweepBlockMerged(s, coeffs, cur, next, opts)
			case VariantCyclicMerged:
				err = sweepCyclicMerged(s, coeffs, cur, next, opts)
			case VariantStreaming:
				err = sweepStreaming(s, coeffs, cur, next)
			default:
				return nil, fmt.Errorf("cpukernel: unknown variant %d", int(v))
			}
			if err != nil {
				return nil, err
			}
			cur, next = next, cur
		}
		return cur, nil
	}
}

// point updates one output point from in.
func point(s stencil.Stencil, coeffs stencil.Coefficients, in *stencil.Grid, x, y, z int) float64 {
	acc := 0.0
	nx, ny := in.Nx, in.Ny
	for i, p := range s.Points {
		acc += coeffs[i] * in.Data[((z+p.Dz)*ny+(y+p.Dy))*nx+(x+p.Dx)]
	}
	return acc
}

// bounds mirrors the reference executor's interior region.
func bounds(s stencil.Stencil, g *stencil.Grid) (r, z0, z1 int) {
	r = s.Order()
	if s.Dims == 2 {
		return r, 0, g.Nz
	}
	return r, r, g.Nz - r
}

// sweepTiled is one interior sweep in TileX x TileY spatial tiles.
func sweepTiled(s stencil.Stencil, coeffs stencil.Coefficients, in, out *stencil.Grid, opts Options) error {
	copy(out.Data, in.Data)
	r, z0, z1 := bounds(s, in)
	for z := z0; z < z1; z++ {
		for ty := r; ty < in.Ny-r; ty += opts.TileY {
			yEnd := minInt(ty+opts.TileY, in.Ny-r)
			for tx := r; tx < in.Nx-r; tx += opts.TileX {
				xEnd := minInt(tx+opts.TileX, in.Nx-r)
				for y := ty; y < yEnd; y++ {
					for x := tx; x < xEnd; x++ {
						out.Set(x, y, z, point(s, coeffs, in, x, y, z))
					}
				}
			}
		}
	}
	return nil
}

// sweepBlockMerged processes Merge adjacent x-points per inner step.
func sweepBlockMerged(s stencil.Stencil, coeffs stencil.Coefficients, in, out *stencil.Grid, opts Options) error {
	copy(out.Data, in.Data)
	r, z0, z1 := bounds(s, in)
	m := opts.Merge
	for z := z0; z < z1; z++ {
		for y := r; y < in.Ny-r; y++ {
			for x := r; x < in.Nx-r; x += m {
				end := minInt(x+m, in.Nx-r)
				for xx := x; xx < end; xx++ {
					out.Set(xx, y, z, point(s, coeffs, in, xx, y, z))
				}
			}
		}
	}
	return nil
}

// sweepCyclicMerged covers the x-range in Merge strided passes.
func sweepCyclicMerged(s stencil.Stencil, coeffs stencil.Coefficients, in, out *stencil.Grid, opts Options) error {
	copy(out.Data, in.Data)
	r, z0, z1 := bounds(s, in)
	m := opts.Merge
	for z := z0; z < z1; z++ {
		for y := r; y < in.Ny-r; y++ {
			for phase := 0; phase < m; phase++ {
				for x := r + phase; x < in.Nx-r; x += m {
					out.Set(x, y, z, point(s, coeffs, in, x, y, z))
				}
			}
		}
	}
	return nil
}

// sweepStreaming marches the outermost dimension plane by plane (the
// 2.5-D schedule: for 3-D grids the z planes, for 2-D the rows).
func sweepStreaming(s stencil.Stencil, coeffs stencil.Coefficients, in, out *stencil.Grid) error {
	copy(out.Data, in.Data)
	r, z0, z1 := bounds(s, in)
	if s.Dims == 3 {
		for z := z0; z < z1; z++ { // streamed dimension
			for y := r; y < in.Ny-r; y++ {
				for x := r; x < in.Nx-r; x++ {
					out.Set(x, y, z, point(s, coeffs, in, x, y, z))
				}
			}
		}
		return nil
	}
	for y := r; y < in.Ny-r; y++ { // streamed rows
		for x := r; x < in.Nx-r; x++ {
			out.Set(x, y, 0, point(s, coeffs, in, x, y, 0))
		}
	}
	return nil
}

// temporalBlocked fuses TBDepth steps per tile pass using overlapped
// halos: each tile's working buffer is expanded by TBDepth*order and
// recomputed locally, so tile interiors equal TBDepth naive sweeps.
// Remaining steps (steps % TBDepth) run naively.
func temporalBlocked(s stencil.Stencil, coeffs stencil.Coefficients, in *stencil.Grid, steps int, opts Options) (*stencil.Grid, error) {
	r := s.Order()
	cur := in.Clone()
	for steps > 0 {
		tb := minInt(opts.TBDepth, steps)
		next, err := fusedSweep(s, coeffs, cur, tb, opts, r)
		if err != nil {
			return nil, err
		}
		cur = next
		steps -= tb
	}
	return cur, nil
}

// fusedSweep advances the whole grid by tb steps using overlapped tiles.
func fusedSweep(s stencil.Stencil, coeffs stencil.Coefficients, in *stencil.Grid, tb int, opts Options, r int) (*stencil.Grid, error) {
	out := in.Clone()
	halo := tb * r
	for tz := 0; tz < in.Nz; tz += depthTile(s, in) {
		zEnd := minInt(tz+depthTile(s, in), in.Nz)
		for ty := 0; ty < in.Ny; ty += opts.TileY {
			yEnd := minInt(ty+opts.TileY, in.Ny)
			for tx := 0; tx < in.Nx; tx += opts.TileX {
				xEnd := minInt(tx+opts.TileX, in.Nx)
				// Working buffer covering the tile plus tb*r halo,
				// clipped to the grid.
				bx0, bx1 := maxInt(tx-halo, 0), minInt(xEnd+halo, in.Nx)
				by0, by1 := maxInt(ty-halo, 0), minInt(yEnd+halo, in.Ny)
				bz0, bz1 := maxInt(tz-halo, 0), minInt(zEnd+halo, in.Nz)
				if s.Dims == 2 {
					bz0, bz1 = 0, 1
				}
				buf := extract(in, bx0, bx1, by0, by1, bz0, bz1)
				tmp := stencil.NewGrid(buf.Nx, buf.Ny, buf.Nz)
				for t := 0; t < tb; t++ {
					// Apply one step inside the buffer with the same
					// global-interior predicate the reference uses.
					step(s, coeffs, buf, tmp, bx0, by0, bz0, in)
					buf, tmp = tmp, buf
				}
				// Write back only the tile core (valid after tb steps).
				for z := tz; z < zEnd; z++ {
					bz := z - bz0
					if s.Dims == 2 {
						bz = 0
					}
					for y := ty; y < yEnd; y++ {
						for x := tx; x < xEnd; x++ {
							out.Set(x, y, z, buf.At(x-bx0, y-by0, bz))
						}
					}
				}
			}
		}
	}
	return out, nil
}

// depthTile returns the z tile extent (full depth for 2-D grids).
func depthTile(s stencil.Stencil, g *stencil.Grid) int {
	if s.Dims == 2 {
		return 1
	}
	return 16
}

// extract copies a clipped box into a standalone buffer.
func extract(g *stencil.Grid, x0, x1, y0, y1, z0, z1 int) *stencil.Grid {
	out := stencil.NewGrid(x1-x0, y1-y0, z1-z0)
	for z := z0; z < z1; z++ {
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				out.Set(x-x0, y-y0, z-z0, g.At(x, y, z))
			}
		}
	}
	return out
}

// step applies one reference-semantics step inside a buffer whose origin
// in global coordinates is (gx0, gy0, gz0); points whose global position
// is in the halo ring (or whose neighbors fall outside the buffer) are
// copied unchanged.
func step(s stencil.Stencil, coeffs stencil.Coefficients, in, out *stencil.Grid, gx0, gy0, gz0 int, global *stencil.Grid) {
	r := s.Order()
	copy(out.Data, in.Data)
	z0, z1 := 0, in.Nz
	if s.Dims == 3 {
		z0, z1 = maxInt(0, r-gz0), in.Nz
	}
	for z := z0; z < z1; z++ {
		gz := gz0 + z
		if s.Dims == 3 && (gz < r || gz >= global.Nz-r) {
			continue
		}
		if s.Dims == 3 && (z < r || z >= in.Nz-r) {
			continue // neighbors outside the buffer; value is stale halo
		}
		for y := 0; y < in.Ny; y++ {
			gy := gy0 + y
			if gy < r || gy >= global.Ny-r || y < r || y >= in.Ny-r {
				continue
			}
			for x := 0; x < in.Nx; x++ {
				gx := gx0 + x
				if gx < r || gx >= global.Nx-r || x < r || x >= in.Nx-r {
					continue
				}
				out.Set(x, y, z, point(s, coeffs, in, x, y, z))
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
