// Package stencil defines stencil access patterns — the sets of neighbor
// offsets a stencil computation reads to update each grid point — together
// with classic shape constructors (star, box, cross) and validation
// helpers.
//
// Throughout the package a stencil's order is the Chebyshev radius of its
// access pattern: the maximum of |dx|, |dy|, |dz| over all accessed offsets.
// This matches the paper's tensor representation, where a 2-D stencil with
// maximum order 4 rasterizes into a 9x9 binary tensor.
package stencil

import (
	"fmt"
	"math"
)

// MaxOrder is the maximum stencil order supported by the framework,
// matching the paper's evaluation setup (orders 1-4, 9^d tensors).
const MaxOrder = 4

// Point is a relative grid offset accessed by a stencil. For 2-D stencils
// Dz is always zero. The zero Point is the central point.
type Point struct {
	Dx, Dy, Dz int
}

// Order returns the Chebyshev distance of the point from the center, i.e.
// the neighbor order the point belongs to.
func (p Point) Order() int {
	return max3(abs(p.Dx), abs(p.Dy), abs(p.Dz))
}

// Euclidean returns the L2 distance of the point from the center.
func (p Point) Euclidean() float64 {
	return math.Sqrt(float64(p.Dx*p.Dx + p.Dy*p.Dy + p.Dz*p.Dz))
}

// IsCenter reports whether p is the central point.
func (p Point) IsCenter() bool {
	return p.Dx == 0 && p.Dy == 0 && p.Dz == 0
}

// Less orders points lexicographically by (Dz, Dy, Dx); it provides the
// canonical ordering used by Stencil.Canonicalize.
func (p Point) Less(q Point) bool {
	if p.Dz != q.Dz {
		return p.Dz < q.Dz
	}
	if p.Dy != q.Dy {
		return p.Dy < q.Dy
	}
	return p.Dx < q.Dx
}

// String returns the offset as "(dx,dy)" for 2-D-looking points or
// "(dx,dy,dz)" otherwise.
func (p Point) String() string {
	if p.Dz == 0 {
		return fmt.Sprintf("(%d,%d)", p.Dx, p.Dy)
	}
	return fmt.Sprintf("(%d,%d,%d)", p.Dx, p.Dy, p.Dz)
}

// Neighbors returns the Chebyshev-adjacent offsets of p in the given
// dimensionality: 8 neighbors for dims == 2, 26 for dims == 3. The result
// excludes p itself. Points are emitted in canonical (Dz, Dy, Dx) order.
func (p Point) Neighbors(dims int) []Point {
	zr := 0
	if dims == 3 {
		zr = 1
	}
	out := make([]Point, 0, 26)
	for dz := -zr; dz <= zr; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				out = append(out, Point{p.Dx + dx, p.Dy + dy, p.Dz + dz})
			}
		}
	}
	return out
}

// abs saturates: -math.MinInt overflows back to itself, so MinInt maps
// to math.MaxInt and an order check still reads it as out of range.
func abs(x int) int {
	if x == math.MinInt {
		return math.MaxInt
	}
	if x < 0 {
		return -x
	}
	return x
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
