package stencil

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Shape classifies the geometry of a stencil's access pattern.
type Shape int

// Classic stencil shapes. Random stencils that match none of the classic
// geometries are classified as ShapeFree.
const (
	ShapeFree Shape = iota
	ShapeStar
	ShapeBox
	ShapeCross
)

// String returns the lowercase shape name used in stencil identifiers
// (e.g. "star" in "star2d1r").
func (s Shape) String() string {
	switch s {
	case ShapeStar:
		return "star"
	case ShapeBox:
		return "box"
	case ShapeCross:
		return "cross"
	default:
		return "free"
	}
}

// Stencil is an immutable-by-convention stencil access pattern: the set of
// relative offsets read to update one output point. All constructors and
// the random generator produce canonicalized stencils (sorted, deduplicated,
// center included).
type Stencil struct {
	// Name identifies the stencil, e.g. "star2d1r" or "rand3d-42".
	Name string
	// Dims is the grid dimensionality, 2 or 3.
	Dims int
	// Points holds the accessed offsets in canonical order, always
	// including the central point.
	Points []Point
}

// New builds a canonicalized stencil from the given offsets. The central
// point is added if absent. New returns an error if dims is not 2 or 3, if
// any point exceeds MaxOrder, or if a 2-D stencil has a nonzero Dz offset.
func New(name string, dims int, points []Point) (Stencil, error) {
	if dims != 2 && dims != 3 {
		return Stencil{}, fmt.Errorf("stencil %q: dims must be 2 or 3, got %d", name, dims)
	}
	for _, p := range points {
		if dims == 2 && p.Dz != 0 {
			return Stencil{}, fmt.Errorf("stencil %q: 2-D stencil has offset %v with dz != 0", name, p)
		}
		if p.Order() > MaxOrder {
			return Stencil{}, fmt.Errorf("stencil %q: offset %v exceeds max order %d", name, p, MaxOrder)
		}
	}
	s := Stencil{Name: name, Dims: dims, Points: append([]Point(nil), points...)}
	s.canonicalize()
	return s, nil
}

// MustNew is New, panicking on error. It is intended for statically known
// shapes (package-level tables, tests).
func MustNew(name string, dims int, points []Point) Stencil {
	s, err := New(name, dims, points)
	if err != nil {
		panic(err)
	}
	return s
}

// canonicalize sorts points, removes duplicates and inserts the center.
// It orders any offsets, in range or not: Validate judges the result.
func (s *Stencil) canonicalize() {
	pts := append(s.Points, Point{}) // ensure center
	slices.SortFunc(pts, func(p, q Point) int {
		return cmp.Or(cmp.Compare(p.Dz, q.Dz), cmp.Compare(p.Dy, q.Dy), cmp.Compare(p.Dx, q.Dx))
	})
	s.Points = slices.Compact(pts)
}

// Order returns the stencil order: the maximum Chebyshev distance over all
// accessed offsets. The empty stencil has order 0.
func (s Stencil) Order() int {
	o := 0
	for _, p := range s.Points {
		if po := p.Order(); po > o {
			o = po
		}
	}
	return o
}

// NumPoints returns the number of accessed offsets, center included.
func (s Stencil) NumPoints() int { return len(s.Points) }

// PointsAtOrder returns the accessed offsets whose Chebyshev distance from
// the center equals order.
func (s Stencil) PointsAtOrder(order int) []Point {
	var out []Point
	for _, p := range s.Points {
		if p.Order() == order {
			out = append(out, p)
		}
	}
	return out
}

// Contains reports whether the stencil accesses the given offset.
func (s Stencil) Contains(p Point) bool {
	// Points is sorted by Less; binary search.
	i := sort.Search(len(s.Points), func(i int) bool { return !s.Points[i].Less(p) })
	return i < len(s.Points) && s.Points[i] == p
}

// Validate checks the structural invariants every canonical stencil must
// satisfy. It is used by property tests and by consumers of deserialized
// stencils.
func (s Stencil) Validate() error {
	if s.Dims != 2 && s.Dims != 3 {
		return fmt.Errorf("stencil %q: invalid dims %d", s.Name, s.Dims)
	}
	if len(s.Points) == 0 {
		return errors.New("stencil has no points")
	}
	hasCenter := false
	for i, p := range s.Points {
		if i > 0 && !s.Points[i-1].Less(p) {
			return fmt.Errorf("stencil %q: points not in canonical order at index %d", s.Name, i)
		}
		if s.Dims == 2 && p.Dz != 0 {
			return fmt.Errorf("stencil %q: 2-D stencil accesses %v", s.Name, p)
		}
		if p.Order() > MaxOrder {
			return fmt.Errorf("stencil %q: point %v exceeds max order", s.Name, p)
		}
		if p.IsCenter() {
			hasCenter = true
		}
	}
	if !hasCenter {
		return fmt.Errorf("stencil %q: central point missing", s.Name)
	}
	return nil
}

// Classify reports which classic shape the access pattern matches exactly,
// or ShapeFree if none.
func (s Stencil) Classify() Shape {
	order := s.Order()
	if order == 0 {
		return ShapeFree
	}
	for _, sh := range []Shape{ShapeStar, ShapeBox, ShapeCross} {
		ref := Stencil{Dims: s.Dims, Points: classicPoints(sh, s.Dims, order)}
		ref.canonicalize()
		if samePoints(s.Points, ref.Points) {
			return sh
		}
	}
	return ShapeFree
}

// String renders a compact description such as
// "star2d1r (2D, order 1, 5 points, star)".
func (s Stencil) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%dD, order %d, %d points, %s)",
		s.Name, s.Dims, s.Order(), len(s.Points), s.Classify())
	return b.String()
}

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
