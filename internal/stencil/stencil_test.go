package stencil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOrder(t *testing.T) {
	cases := []struct {
		p    Point
		want int
	}{
		{Point{}, 0},
		{Point{1, 0, 0}, 1},
		{Point{-1, 0, 0}, 1},
		{Point{2, 1, 0}, 2},
		{Point{-3, 3, -2}, 3},
		{Point{0, 0, 4}, 4},
		{Point{math.MinInt, 0, 0}, math.MaxInt},
		{Point{0, math.MinInt, 1}, math.MaxInt},
	}
	for _, c := range cases {
		if got := c.p.Order(); got != c.want {
			t.Errorf("Order(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPointDistances(t *testing.T) {
	p := Point{3, -4, 0}
	if got := p.Euclidean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Euclidean = %g, want 5", got)
	}
}

func TestClassicShapeSizes(t *testing.T) {
	cases := []struct {
		s    Stencil
		want int
	}{
		{Star(2, 1), 5},
		{Star(2, 4), 17},
		{Star(3, 1), 7},
		{Star(3, 4), 25},
		{Box(2, 1), 9},
		{Box(2, 4), 81},
		{Box(3, 1), 27},
		{Box(3, 2), 125},
		{Cross(2, 1), 5},
		{Cross(2, 2), 9},
		{Cross(3, 1), 9},
	}
	for _, c := range cases {
		if got := c.s.NumPoints(); got != c.want {
			t.Errorf("%s: NumPoints = %d, want %d", c.s.Name, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	for dims := 2; dims <= 3; dims++ {
		for order := 1; order <= MaxOrder; order++ {
			if got := Star(dims, order).Classify(); got != ShapeStar {
				t.Errorf("star %dd%dr classified as %v", dims, order, got)
			}
			if got := Box(dims, order).Classify(); got != ShapeBox {
				t.Errorf("box %dd%dr classified as %v", dims, order, got)
			}
			if got := Cross(dims, order).Classify(); got != ShapeCross {
				t.Errorf("cross %dd%dr classified as %v", dims, order, got)
			}
		}
	}
	free := MustNew("free", 2, []Point{{1, 0, 0}, {0, 2, 0}})
	if got := free.Classify(); got != ShapeFree {
		t.Errorf("free stencil classified as %v", got)
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("box3d2r")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if s.Dims != 3 || s.Order() != 2 || s.Classify() != ShapeBox {
		t.Errorf("ByName(box3d2r) = %v", s)
	}
	for _, bad := range []string{"blob2d1r", "star4d1r", "star2d9r", "star", ""} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) succeeded, want error", bad)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New("bad", 4, nil); err == nil {
		t.Error("dims=4 accepted")
	}
	if _, err := New("bad", 2, []Point{{0, 0, 1}}); err == nil {
		t.Error("2-D stencil with dz accepted")
	}
	if _, err := New("bad", 2, []Point{{5, 0, 0}}); err == nil {
		t.Error("order-5 point accepted")
	}
	// |math.MinInt| does not fit in an int; every coordinate must still
	// lie in [-MaxOrder, MaxOrder], for New and for Validate.
	for _, p := range []Point{{math.MinInt, 0, 0}, {0, math.MinInt, 0}, {1, 0, math.MinInt}} {
		if _, err := New("bad", 3, []Point{p}); err == nil {
			t.Errorf("New accepted offset %v", p)
		}
		s := Stencil{Name: "bad", Dims: 3, Points: []Point{p}}
		s.canonicalize()
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted offset %v", p)
		}
	}
}

func TestCanonicalization(t *testing.T) {
	s := MustNew("dup", 2, []Point{{1, 0, 0}, {1, 0, 0}, {-1, 0, 0}})
	if s.NumPoints() != 3 { // center added, duplicate removed
		t.Fatalf("NumPoints = %d, want 3", s.NumPoints())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !s.Contains(Point{}) {
		t.Error("center missing after canonicalization")
	}
	if s.Contains(Point{2, 2, 0}) {
		t.Error("Contains reports absent point")
	}
}

func TestRepresentativeSuite(t *testing.T) {
	all := RepresentativeAll()
	if len(all) != 24 {
		t.Fatalf("RepresentativeAll: %d stencils, want 24", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate stencil %s", s.Name)
		}
		seen[s.Name] = true
	}
}

// Property: canonicalization is idempotent and always yields a valid
// stencil containing the center, for arbitrary in-range offsets.
func TestQuickCanonicalValid(t *testing.T) {
	f := func(raw []int8, threeD bool) bool {
		dims := 2
		if threeD {
			dims = 3
		}
		var pts []Point
		for i := 0; i+2 < len(raw); i += 3 {
			p := Point{
				Dx: int(raw[i])%(MaxOrder+1) - MaxOrder/2,
				Dy: int(raw[i+1])%(MaxOrder+1) - MaxOrder/2,
			}
			if dims == 3 {
				p.Dz = int(raw[i+2])%(MaxOrder+1) - MaxOrder/2
			}
			if p.Order() <= MaxOrder {
				pts = append(pts, p)
			}
		}
		s, err := New("q", dims, pts)
		if err != nil {
			return false
		}
		if s.Validate() != nil || !s.Contains(Point{}) {
			return false
		}
		s2, err := New("q", dims, s.Points)
		if err != nil || len(s2.Points) != len(s.Points) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: order equals the max point order and PointsAtOrder partitions
// the point set.
func TestQuickOrderPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pts []Point
		for i := 0; i < 1+rng.Intn(20); i++ {
			pts = append(pts, Point{
				Dx: rng.Intn(2*MaxOrder+1) - MaxOrder,
				Dy: rng.Intn(2*MaxOrder+1) - MaxOrder,
			})
		}
		s, err := New("q", 2, pts)
		if err != nil {
			return false
		}
		total := 0
		for o := 0; o <= MaxOrder; o++ {
			total += len(s.PointsAtOrder(o))
		}
		return total == s.NumPoints()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
