package baseline

import (
	"math"
	"math/rand"
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

// refResult is the strategies' outcome as the oracle below reports it.
type refResult struct {
	Time        float64
	OC          opt.Opt
	Params      opt.Params
	Evaluations int
}

// searchOC is the strategies' own best-of-N loop as it stood before they
// called tuner.Search: draw up to budget samples for one OC and keep the
// first strictly fastest, resolving the cell once per search.
func searchOC(m *sim.Model, w sim.Workload, arch gpu.Arch, oc opt.Opt, budget int, rng *rand.Rand) (refResult, bool) {
	res := refResult{OC: oc}
	eval := m.CellFn(w, arch)
	found := false
	for i := 0; i < budget; i++ {
		p := opt.Sample(oc, w.S.Dims, rng)
		r, err := eval(oc, p)
		res.Evaluations++
		if err != nil {
			continue
		}
		if !found || r.Time < res.Time {
			res.Time = r.Time
			res.Params = p
			found = true
		}
	}
	return res, found
}

// referenceAN5D is AN5D.Tune on searchOC, with math/rand's own source.
func referenceAN5D(m *sim.Model, w sim.Workload, arch gpu.Arch, budget int, seed int64) (refResult, bool) {
	rng := rand.New(rand.NewSource(seed))
	res, ok := searchOC(m, w, arch, opt.ST|opt.TB, budget, rng)
	if ok {
		return res, true
	}
	spent := res.Evaluations
	res, ok = searchOC(m, w, arch, opt.ST, budget, rng)
	res.Evaluations += spent
	return res, ok
}

// referenceArtemis is Artemis.Tune on searchOC, with math/rand's own
// source.
func referenceArtemis(m *sim.Model, w sim.Workload, arch gpu.Arch, budget int, seed int64) (refResult, bool) {
	rng := rand.New(rand.NewSource(seed))
	spent := 0
	half := budget / 2
	if half < 1 {
		half = 1
	}
	best, found := searchOC(m, w, arch, opt.ST, half, rng)
	spent += best.Evaluations
	remaining := budget - spent
	per := remaining / len(artemisCandidates)
	if per < 1 {
		per = 1
	}
	for _, oc := range artemisCandidates {
		if spent >= budget {
			break
		}
		b := per
		if b > budget-spent {
			b = budget - spent
		}
		res, ok := searchOC(m, w, arch, oc, b, rng)
		spent += res.Evaluations
		if ok && (!found || res.Time < best.Time) {
			best = res
			found = true
		}
	}
	best.Evaluations = spent
	return best, found
}

// TestStrategiesMatchReference: both strategies return, bit for bit, the
// winner the oracle's own loop finds — time bits, setting, OC and
// evaluations — and fail exactly where it finds nothing, over the
// representative suite, every catalog GPU and budgets from 1 to Fig.
// 10's (small budgets make AN5D fall back). Artemis spends at most its
// budget, the equal-budget premise of Figs. 10 and 11.
func TestStrategiesMatchReference(t *testing.T) {
	refs := map[string]func(*sim.Model, sim.Workload, gpu.Arch, int, int64) (refResult, bool){
		"AN5D":    referenceAN5D,
		"Artemis": referenceArtemis,
	}
	stencils := append(stencil.Representative(2), stencil.Representative(3)...)
	fallbacks := 0
	for _, arch := range gpu.Catalog() {
		m, refModel := sim.New(), sim.New()
		for si, s := range stencils {
			w := sim.DefaultWorkload(s)
			for _, budget := range []int{1, 2, 5, 6, 13, 24, 40} {
				seed := int64(si*41 + budget)
				for _, strat := range []Strategy{AN5D{}, Artemis{}} {
					want, ok := refs[strat.Name()](refModel, w, arch, budget, seed)
					got, err := strat.Tune(m, w, arch, budget, seed)
					if (err == nil) != ok {
						t.Fatalf("%s %s on %s budget %d: err=%v, oracle found=%v", strat.Name(), s.Name, arch.Name, budget, err, ok)
					}
					if !ok {
						continue
					}
					if math.Float64bits(got.Time) != math.Float64bits(want.Time) || got.OC != want.OC ||
						got.Params != want.Params || got.Evaluations != want.Evaluations {
						t.Fatalf("%s %s on %s budget %d:\n got    %+v\n oracle %+v", strat.Name(), s.Name, arch.Name, budget, got, want)
					}
					if strat.Name() == "AN5D" && got.OC == opt.ST {
						fallbacks++
					}
					if strat.Name() == "Artemis" && got.Evaluations > budget {
						t.Fatalf("Artemis %s on %s spent %d evaluations for budget %d", s.Name, arch.Name, got.Evaluations, budget)
					}
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Error("no case took AN5D's ST fallback, so the oracle never checked it")
	}
}
