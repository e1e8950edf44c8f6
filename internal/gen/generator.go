// Package gen implements the paper's random stencil generator
// (Algorithm 1): stencils are grown outward order by order, sampling each
// order's points only from the neighbors of the points selected at the
// previous order, so every generated pattern obeys the neighbor-chained
// access structure of real stencil computations.
package gen

import (
	"fmt"
	"math/rand"

	"stencilmart/internal/stencil"
)

// Options configures the generator.
type Options struct {
	// Dims is the stencil dimensionality, 2 or 3.
	Dims int
	// MaxOrder bounds the generated stencil order; each stencil draws its
	// target order uniformly from [1, MaxOrder]. Defaults to
	// stencil.MaxOrder when zero.
	MaxOrder int
}

// keepProb is the probability of keeping each candidate neighbor at every
// order (at least one is always kept).
const keepProb = 0.35

func (o *Options) setDefaults() error {
	if o.Dims != 2 && o.Dims != 3 {
		return fmt.Errorf("gen: dims must be 2 or 3, got %d", o.Dims)
	}
	if o.MaxOrder == 0 {
		o.MaxOrder = stencil.MaxOrder
	}
	if o.MaxOrder < 1 || o.MaxOrder > stencil.MaxOrder {
		return fmt.Errorf("gen: max order must be in [1,%d], got %d", stencil.MaxOrder, o.MaxOrder)
	}
	return nil
}

// Generator produces random neighbor-chained stencils. It is not safe for
// concurrent use; create one generator per goroutine.
type Generator struct {
	opts Options
	rng  *rand.Rand
	n    int // stencils produced, used for naming
}

// New returns a generator with the given options and deterministic seed.
func New(opts Options, seed int64) (*Generator, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	return &Generator{opts: opts, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next generates one random stencil of a random order in [1, MaxOrder].
func (g *Generator) Next() stencil.Stencil {
	order := 1 + g.rng.Intn(g.opts.MaxOrder)
	return g.NextWithOrder(order)
}

// NextWithOrder generates one random stencil of exactly the given order.
// It implements Algorithm 1 of the paper: the order-k point set is sampled
// from the neighbors of the order-(k-1) selection, discarding any
// candidate that does not lie at Chebyshev distance k (the "delete sampled
// low-order neighbor points" steps).
func (g *Generator) NextWithOrder(order int) stencil.Stencil {
	if order < 1 || order > g.opts.MaxOrder {
		panic(fmt.Sprintf("gen: order %d outside [1,%d]", order, g.opts.MaxOrder))
	}
	npList := []stencil.Point{{}} // center
	selected := []stencil.Point{{}}
	for o := 1; o <= order; o++ {
		candidates := g.orderCandidates(selected, o)
		picked := g.sample(candidates)
		npList = append(npList, picked...)
		selected = picked
	}
	g.n++
	name := fmt.Sprintf("rand%dd-%d", g.opts.Dims, g.n)
	s, err := stencil.New(name, g.opts.Dims, npList)
	if err != nil {
		// Unreachable by construction: all candidates are within MaxOrder
		// and match the generator dimensionality.
		panic(fmt.Sprintf("gen: generated invalid stencil: %v", err))
	}
	return s
}

// side is the width of the offset box every generated point lies in.
const side = 2*stencil.MaxOrder + 1

// cell is p's index in the side^3 box, in canonical (dz, dy, dx) order.
func cell(p stencil.Point) int {
	const r = stencil.MaxOrder
	return ((p.Dz+r)*side+p.Dy+r)*side + p.Dx + r
}

// orderCandidates collects the distinct neighbors of the previous
// selection at Chebyshev distance o from the center, in canonical (dz, dy,
// dx) order: marked on the box's occupancy grid read out in index order.
func (g *Generator) orderCandidates(selected []stencil.Point, o int) []stencil.Point {
	const r = stencil.MaxOrder
	var marked [side * side * side]bool
	zr := g.opts.Dims - 2 // the dz reach of a neighbor: 0 in 2-D, 1 in 3-D
	for _, p := range selected {
		for dz := p.Dz - zr; dz <= p.Dz+zr; dz++ {
			for dy := p.Dy - 1; dy <= p.Dy+1; dy++ {
				for dx := p.Dx - 1; dx <= p.Dx+1; dx++ {
					if q := (stencil.Point{Dx: dx, Dy: dy, Dz: dz}); q.Order() == o {
						marked[cell(q)] = true
					}
				}
			}
		}
	}
	var out []stencil.Point
	for i, m := range marked {
		if m {
			out = append(out, stencil.Point{Dx: i%side - r, Dy: i/side%side - r, Dz: i/(side*side) - r})
		}
	}
	return out
}

// sample keeps each candidate with probability keepProb and guarantees a
// nonempty result so the growth chain never stalls below the target order.
func (g *Generator) sample(candidates []stencil.Point) []stencil.Point {
	if len(candidates) == 0 {
		return nil
	}
	var out []stencil.Point
	for _, p := range candidates {
		if g.rng.Float64() < keepProb {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = append(out, candidates[g.rng.Intn(len(candidates))])
	}
	return out
}

// Corpus generates n distinct random stencils. Duplicate access patterns
// are regenerated (bounded retries) so the training corpus does not
// contain repeated patterns under different names.
func (g *Generator) Corpus(n int) []stencil.Stencil {
	seen := make(map[pattern]bool, n)
	out := make([]stencil.Stencil, 0, n)
	const maxRetries = 64
	for len(out) < n {
		s := g.Next()
		key := patternKey(s)
		retries := 0
		for seen[key] && retries < maxRetries {
			s = g.Next()
			key = patternKey(s)
			retries++
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}

// MixedCorpus generates n2d 2-D and n3d 3-D stencils with the same
// MaxOrder, seeding the two sub-generators from seed.
func MixedCorpus(n2d, n3d int, maxOrder int, seed int64) ([]stencil.Stencil, error) {
	g2, err := New(Options{Dims: 2, MaxOrder: maxOrder}, seed)
	if err != nil {
		return nil, err
	}
	g3, err := New(Options{Dims: 3, MaxOrder: maxOrder}, seed+1)
	if err != nil {
		return nil, err
	}
	out := g2.Corpus(n2d)
	return append(out, g3.Corpus(n3d)...), nil
}

// pattern is a stencil's dedup key: its dims and an occupancy bitmap of
// the side^3 offset box, one bit per point. A canonical stencil is a
// point set, so two generated stencils share a pattern iff they have the
// same dims and points.
type pattern struct {
	dims int
	bits [(side*side*side + 63) / 64]uint64
}

func patternKey(s stencil.Stencil) pattern {
	k := pattern{dims: s.Dims}
	for _, p := range s.Points {
		i := cell(p)
		k.bits[i/64] |= 1 << (i % 64)
	}
	return k
}
