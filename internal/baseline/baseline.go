// Package baseline emulates the two state-of-the-art stencil frameworks
// the paper compares against (Sec. V-B2). The evaluation uses them as
// fixed optimization strategies driving an equal-budget parameter search,
// which is exactly what these emulations implement against the simulation
// substrate:
//
//   - AN5D (Matsumura et al., CGO'20) generates streaming code with
//     high-degree temporal blocking: OC = ST_TB, falling back to plain ST
//     when the fused kernel cannot run.
//   - Artemis (Rawat et al., IPDPS'19) tunes high-impact optimizations
//     first: it spends half its budget tuning plain streaming, then
//     splits the rest across streaming extended with retiming,
//     prefetching and merging, keeping the best candidate.
package baseline

import (
	"fmt"
	"math/rand"

	"stencilmart/internal/gpu"
	"stencilmart/internal/lazyrand"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
)

// Result is a baseline tuning outcome.
type Result struct {
	// Time is the best execution time found, in seconds.
	Time float64
	// OC is the combination that achieved it.
	OC opt.Opt
	// Params is the winning setting.
	Params opt.Params
	// Evaluations is the number of simulator runs spent.
	Evaluations int
}

// Strategy is a fixed-policy stencil tuner.
type Strategy interface {
	// Name returns the framework name used in reports.
	Name() string
	// Tune searches for the stencil's best configuration on arch within
	// the given evaluation budget.
	Tune(m *sim.Model, w sim.Workload, arch gpu.Arch, budget int, seed int64) (Result, error)
}

// searchOC draws up to budget samples for one OC and returns the best.
// The cell's compiled evaluator is resolved once per search; a stencil's
// later searches find the cell again, so they run on its sample memo.
func searchOC(m *sim.Model, w sim.Workload, arch gpu.Arch, oc opt.Opt, budget int, rng *rand.Rand) (Result, bool) {
	res := Result{OC: oc}
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

// AN5D is the ST_TB (high-degree temporal blocking) code generator.
type AN5D struct{}

// Name implements Strategy.
func (AN5D) Name() string { return "AN5D" }

// Tune implements Strategy.
func (AN5D) Tune(m *sim.Model, w sim.Workload, arch gpu.Arch, budget int, seed int64) (Result, error) {
	if budget < 1 {
		return Result{}, fmt.Errorf("baseline: AN5D budget %d < 1", budget)
	}
	rng := rand.New(lazyrand.NewSource(seed))
	res, ok := searchOC(m, w, arch, opt.ST|opt.TB, budget, rng)
	if ok {
		return res, nil
	}
	// Temporal blocking unusable for this stencil: fall back to the plain
	// streaming generator.
	spent := res.Evaluations
	res, ok = searchOC(m, w, arch, opt.ST, budget, rng)
	res.Evaluations += spent
	if !ok {
		return Result{}, fmt.Errorf("baseline: AN5D found no runnable setting for %s on %s", w.S.Name, arch.Name)
	}
	return res, nil
}

// Artemis is the high-impact-first greedy tuner.
type Artemis struct{}

// Name implements Strategy.
func (Artemis) Name() string { return "Artemis" }

// artemisCandidates are the streaming extensions Artemis explores after
// tuning the base streaming schedule.
var artemisCandidates = []opt.Opt{
	opt.ST | opt.RT,
	opt.ST | opt.PR,
	opt.ST | opt.RT | opt.PR,
	opt.ST | opt.BM,
	opt.ST | opt.CM | opt.PR,
}

// Tune implements Strategy.
func (Artemis) Tune(m *sim.Model, w sim.Workload, arch gpu.Arch, budget int, seed int64) (Result, error) {
	if budget < 1 {
		return Result{}, fmt.Errorf("baseline: Artemis budget %d < 1", budget)
	}
	rng := rand.New(lazyrand.NewSource(seed))
	spent := 0

	// Phase 1: tune the high-impact base optimization (streaming).
	half := budget / 2
	if half < 1 {
		half = 1
	}
	best, found := searchOC(m, w, arch, opt.ST, half, rng)
	spent += best.Evaluations

	// Phase 2: spread the remaining budget over the candidate extensions.
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
	if !found {
		return Result{}, fmt.Errorf("baseline: Artemis found no runnable setting for %s on %s", w.S.Name, arch.Name)
	}
	best.Evaluations = spent
	return best, nil
}
