package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/tuner"
)

// referenceRandomTune is the pre-rewrite Random.Tune, evaluated on the
// pre-rewrite substrate: same rng consumption, same skip-on-error loop,
// with every sample priced by sim.Reference instead of the compiled
// evaluator.
func referenceRandomTune(ref *sim.Reference, w sim.Workload, oc opt.Opt, arch gpu.Arch, budget int, seed int64) (tuner.Result, bool) {
	rng := rand.New(rand.NewSource(seed))
	best := tuner.Result{Time: math.Inf(1)}
	eval := ref.CellFn(w, arch)
	for i := 0; i < budget; i++ {
		p := opt.Sample(oc, w.S.Dims, rng)
		r, err := eval(oc, p)
		best.Evaluations++
		if err != nil {
			continue
		}
		if r.Time < best.Time {
			best.Time = r.Time
			best.Params = p
		}
	}
	return best, !math.IsInf(best.Time, 1)
}

// TestRandomTuneMatchesReference: tuning through the compiled evaluator
// returns bitwise-identical winners to the pre-rewrite search — the
// serve-path tuner (core.ServePredict drives tuner.Random) cannot drift.
// Each search runs three times on the one model, so it is compared with
// the cell at its first lookup, with its memo filling, and on the third,
// identical search answered from the memo alone.
func TestRandomTuneMatchesReference(t *testing.T) {
	const budget = 24
	ref := sim.NewReference()
	for _, s := range []stencil.Stencil{stencil.Star(2, 2), stencil.Box(3, 1), stencil.Star(3, 4)} {
		w := sim.DefaultWorkload(s)
		for _, arch := range gpu.Catalog() {
			for _, oc := range []opt.Opt{0, opt.ST, opt.ST | opt.TB, opt.BM | opt.TB, opt.ST | opt.RT | opt.PR} {
				seed := int64(1000*int(oc) + len(s.Name))
				want, ok := referenceRandomTune(ref, w, oc, arch, budget, seed)
				m := sim.New() // per search: each cell starts at its first lookup
				for _, state := range []string{"first lookup", "memo filling", "memo hitting"} {
					before := m.CacheStats()
					got, err := (tuner.Random{}).Tune(m, w, oc, arch, budget, seed)
					if (err == nil) != ok {
						t.Fatalf("%s %s on %s (%s): outcome disagreement: err=%v ok=%v", s.Name, oc, arch.Name, state, err, ok)
					}
					if ok && (math.Float64bits(got.Time) != math.Float64bits(want.Time) || got.Params != want.Params || got.Evaluations != want.Evaluations) {
						t.Fatalf("%s %s on %s (%s): tuned result differs:\n compiled  %+v\n reference %+v", s.Name, oc, arch.Name, state, got, want)
					}
					after := m.CacheStats()
					lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses)
					switch state {
					case "first lookup":
						if after != (sim.CacheStats{}) {
							t.Fatalf("%s %s on %s: first search touched the memo: %+v", s.Name, oc, arch.Name, after)
						}
					case "memo filling":
						if lookups != budget || after.Misses == 0 {
							t.Fatalf("%s %s on %s: second search made %d memo lookups: %+v", s.Name, oc, arch.Name, lookups, after)
						}
					case "memo hitting":
						if after.Hits-before.Hits != budget {
							t.Fatalf("%s %s on %s: third identical search was not all hits: %+v -> %+v", s.Name, oc, arch.Name, before, after)
						}
					}
				}
			}
		}
	}
}
