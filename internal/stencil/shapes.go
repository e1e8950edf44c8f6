package stencil

import (
	"fmt"
	"slices"
	"strings"
)

// Star returns the classic star stencil: the center plus the 2·dims·order
// axis-aligned offsets, e.g. the 5-point Laplacian for dims=2, order=1.
func Star(dims, order int) Stencil {
	return MustNew(shapeName(ShapeStar, dims, order), dims, classicPoints(ShapeStar, dims, order))
}

// Box returns the classic box stencil: every offset with Chebyshev distance
// at most order, e.g. the 9-point Moore neighborhood for dims=2, order=1.
func Box(dims, order int) Stencil {
	return MustNew(shapeName(ShapeBox, dims, order), dims, classicPoints(ShapeBox, dims, order))
}

// Cross returns the classic cross stencil: the center plus the diagonal
// arms (an "X" in 2-D, the four space diagonals in 3-D). The star shape
// already covers the axis-aligned "+" pattern, so cross is kept disjoint
// from star and box at every order.
func Cross(dims, order int) Stencil {
	return MustNew(shapeName(ShapeCross, dims, order), dims, classicPoints(ShapeCross, dims, order))
}

// ByName returns the classic stencil with the given identifier, of the
// form "<shape><dims>d<order>r" (e.g. "star2d1r", "box3d4r", "cross2d2r"),
// with points of its own. Only the exact identifiers of
// RepresentativeAll are accepted.
func ByName(name string) (Stencil, error) {
	if s, ok := classics[name]; ok {
		s.Points = slices.Clone(s.Points)
		return s, nil
	}
	for _, sh := range []Shape{ShapeStar, ShapeBox, ShapeCross} {
		if strings.HasPrefix(name, sh.String()) {
			return Stencil{}, fmt.Errorf("stencil name %q: want %s<2|3>d<1-%d>r", name, sh, MaxOrder)
		}
	}
	return Stencil{}, fmt.Errorf("stencil name %q: unknown shape prefix", name)
}

// classics indexes RepresentativeAll by name for ByName.
var classics = func() map[string]Stencil {
	m := make(map[string]Stencil)
	for _, s := range RepresentativeAll() {
		m[s.Name] = s
	}
	return m
}()

// Representative returns the benchmark suite used throughout the paper's
// motivation study: star, box and cross shapes, orders 1-4, in the given
// dimensionality (16 stencils total per the paper; here 12 per dims —
// 3 shapes x 4 orders — with both dims giving the full matrix).
func Representative(dims int) []Stencil {
	var out []Stencil
	for order := 1; order <= MaxOrder; order++ {
		out = append(out, Star(dims, order), Box(dims, order), Cross(dims, order))
	}
	return out
}

// RepresentativeAll returns the representative suite for both 2-D and 3-D.
func RepresentativeAll() []Stencil {
	return append(Representative(2), Representative(3)...)
}

func shapeName(sh Shape, dims, order int) string {
	return fmt.Sprintf("%s%dd%dr", sh, dims, order)
}

// classicPoints enumerates the offsets of a classic shape in canonical
// order (center included via New's canonicalization; here emitted directly).
func classicPoints(sh Shape, dims, order int) []Point {
	var pts []Point
	add := func(p Point) { pts = append(pts, p) }
	switch sh {
	case ShapeStar:
		add(Point{})
		for o := 1; o <= order; o++ {
			add(Point{Dx: o})
			add(Point{Dx: -o})
			add(Point{Dy: o})
			add(Point{Dy: -o})
			if dims == 3 {
				add(Point{Dz: o})
				add(Point{Dz: -o})
			}
		}
	case ShapeBox:
		zr := 0
		if dims == 3 {
			zr = order
		}
		for dz := -zr; dz <= zr; dz++ {
			for dy := -order; dy <= order; dy++ {
				for dx := -order; dx <= order; dx++ {
					add(Point{dx, dy, dz})
				}
			}
		}
	case ShapeCross:
		add(Point{})
		for o := 1; o <= order; o++ {
			if dims == 2 {
				add(Point{Dx: o, Dy: o})
				add(Point{Dx: o, Dy: -o})
				add(Point{Dx: -o, Dy: o})
				add(Point{Dx: -o, Dy: -o})
			} else {
				for _, sx := range []int{-1, 1} {
					for _, sy := range []int{-1, 1} {
						for _, sz := range []int{-1, 1} {
							add(Point{Dx: sx * o, Dy: sy * o, Dz: sz * o})
						}
					}
				}
			}
		}
	}
	return pts
}
