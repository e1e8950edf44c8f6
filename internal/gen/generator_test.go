package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"stencilmart/internal/stencil"
)

func mustGen(t *testing.T, opts Options, seed int64) *Generator {
	t.Helper()
	g, err := New(opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Dims: 4}, 1); err == nil {
		t.Error("dims=4 accepted")
	}
	if _, err := New(Options{Dims: 2, MaxOrder: 9}, 1); err == nil {
		t.Error("max order 9 accepted")
	}
}

func TestNextWithOrderExact(t *testing.T) {
	for _, dims := range []int{2, 3} {
		g := mustGen(t, Options{Dims: dims}, 11)
		for order := 1; order <= stencil.MaxOrder; order++ {
			for i := 0; i < 20; i++ {
				s := g.NextWithOrder(order)
				if s.Order() != order {
					t.Fatalf("dims=%d: wanted order %d, got %d (%s)", dims, order, s.Order(), s.Name)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("dims=%d: %v", dims, err)
				}
				if s.Dims != dims {
					t.Fatalf("dims=%d: generated dims %d", dims, s.Dims)
				}
			}
		}
	}
}

// TestNeighborChaining verifies the Algorithm 1 invariant: every point of
// order k is Chebyshev-adjacent to some selected point of order k-1 (or to
// the center for k == 1).
func TestNeighborChaining(t *testing.T) {
	g := mustGen(t, Options{Dims: 3}, 5)
	for i := 0; i < 50; i++ {
		s := g.Next()
		for o := 1; o <= s.Order(); o++ {
			prev := s.PointsAtOrder(o - 1)
			for _, p := range s.PointsAtOrder(o) {
				adjacent := false
				for _, q := range prev {
					if (stencil.Point{Dx: p.Dx - q.Dx, Dy: p.Dy - q.Dy, Dz: p.Dz - q.Dz}).Order() == 1 {
						adjacent = true
					}
				}
				if !adjacent {
					t.Fatalf("%s: order-%d point %v not adjacent to any order-%d point",
						s.Name, o, p, o-1)
				}
			}
			if len(s.PointsAtOrder(o)) == 0 {
				t.Fatalf("%s: empty order-%d shell below stencil order %d", s.Name, o, s.Order())
			}
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := mustGen(t, Options{Dims: 2}, 99).Corpus(10)
	b := mustGen(t, Options{Dims: 2}, 99).Corpus(10)
	for i := range a {
		if len(a[i].Points) != len(b[i].Points) {
			t.Fatalf("corpus %d differs across identical seeds", i)
		}
		for j := range a[i].Points {
			if a[i].Points[j] != b[i].Points[j] {
				t.Fatalf("corpus %d point %d differs across identical seeds", i, j)
			}
		}
	}
	c := mustGen(t, Options{Dims: 2}, 100).Corpus(10)
	same := true
	for i := range a {
		if len(a[i].Points) != len(c[i].Points) {
			same = false
		}
	}
	if same {
		t.Log("warning: different seeds produced size-identical corpus (possible but unlikely)")
	}
}

func TestCorpusDistinctPatterns(t *testing.T) {
	g := mustGen(t, Options{Dims: 2}, 3)
	corpus := g.Corpus(60)
	if len(corpus) != 60 {
		t.Fatalf("corpus size %d, want 60", len(corpus))
	}
	seen := map[string]int{}
	for _, s := range corpus {
		seen[patternKey(s)]++
	}
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups += c - 1
		}
	}
	// Bounded retries allow rare duplicates; they must stay rare.
	if dups > 3 {
		t.Errorf("%d duplicate patterns in corpus of 60", dups)
	}
}

func TestMixedCorpus(t *testing.T) {
	corpus, err := MixedCorpus(8, 6, stencil.MaxOrder, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 14 {
		t.Fatalf("mixed corpus size %d, want 14", len(corpus))
	}
	n2, n3 := 0, 0
	for _, s := range corpus {
		switch s.Dims {
		case 2:
			n2++
		case 3:
			n3++
		}
	}
	if n2 != 8 || n3 != 6 {
		t.Errorf("mixed corpus split %d/%d, want 8/6", n2, n3)
	}
}

// Property: generated stencils are always valid and within MaxOrder,
// whatever the seed and dimensionality.
func TestQuickGeneratedValid(t *testing.T) {
	f := func(seed int64, threeD bool) bool {
		dims := 2
		if threeD {
			dims = 3
		}
		g, err := New(Options{Dims: dims}, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			s := g.Next()
			if s.Validate() != nil || s.Order() > stencil.MaxOrder || s.Order() < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// generatedDigest is the sha256 of generatorStream's output, recorded from
// the map-and-sort.Slice generator that the occupancy-grid one replaced.
const generatedDigest = "80eb4a090bded4800e5c865b496383b5e79d3398372bb4fb40a544fb38340c86"

// generatorStream writes 5,000 Next() stencils for each of seeds 0-3 in
// both dims, then MixedCorpus(500, 500, 4, 7): every name, dims and point
// in order.
func generatorStream(t *testing.T) []byte {
	t.Helper()
	h := sha256.New()
	write := func(s stencil.Stencil) {
		fmt.Fprintf(h, "%s %d", s.Name, s.Dims)
		for _, p := range s.Points {
			fmt.Fprintf(h, " %d,%d,%d", p.Dx, p.Dy, p.Dz)
		}
		h.Write([]byte{'\n'})
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, dims := range []int{2, 3} {
			g := mustGen(t, Options{Dims: dims}, seed)
			for i := 0; i < 5000; i++ {
				write(g.Next())
			}
		}
	}
	corpus, err := MixedCorpus(500, 500, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range corpus {
		write(s)
	}
	return h.Sum(nil)
}

// TestGeneratedStencilsPinned: the generator's output is part of every
// dataset digest and every serve_distinct_nn request, so a faster
// candidate enumeration must emit exactly the same stencils.
func TestGeneratedStencilsPinned(t *testing.T) {
	if got := hex.EncodeToString(generatorStream(t)); got != generatedDigest {
		t.Fatalf("generated stencil digest %s, want %s", got, generatedDigest)
	}
}
