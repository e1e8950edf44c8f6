// Package baseline emulates the two state-of-the-art stencil frameworks
// the paper compares against (Sec. V-B2). The evaluation uses them as
// fixed optimization strategies driving an equal-budget parameter search
// (tuner.Search), which is exactly what these emulations implement
// against the simulation substrate:
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
	"stencilmart/internal/tuner"
)

// Result is a baseline tuning outcome: the winning search's time and
// setting, the combination it searched, and the evaluations the whole
// strategy spent.
type Result struct {
	tuner.Result
	// OC is the combination that achieved Time.
	OC opt.Opt
}

// Strategy is a fixed-policy stencil tuner.
type Strategy interface {
	// Name returns the framework name used in reports.
	Name() string
	// Tune searches for the stencil's best configuration on arch within
	// the given evaluation budget, except that AN5D's fallback search
	// spends a second budget (see AN5D.Tune).
	Tune(m *sim.Model, w sim.Workload, arch gpu.Arch, budget int, seed int64) (Result, error)
}

// AN5D is the ST_TB (high-degree temporal blocking) code generator.
type AN5D struct{}

// Name implements Strategy.
func (AN5D) Name() string { return "AN5D" }

// Tune implements Strategy. When no ST_TB setting runs it searches ST
// with a second budget, so it may spend up to 2*budget evaluations.
func (AN5D) Tune(m *sim.Model, w sim.Workload, arch gpu.Arch, budget int, seed int64) (Result, error) {
	if budget < 1 {
		return Result{}, fmt.Errorf("baseline: AN5D budget %d < 1", budget)
	}
	rng := rand.New(lazyrand.NewSource(seed))
	res, err := tuner.Search(m.CellFn(w, arch), opt.ST|opt.TB, w.S.Dims, budget, rng)
	if err == nil {
		return Result{res, opt.ST | opt.TB}, nil
	}
	// Temporal blocking unusable for this stencil: fall back to the plain
	// streaming generator. The second search finds the cell again, so it
	// runs on the cell's sample memo.
	spent := res.Evaluations
	res, err = tuner.Search(m.CellFn(w, arch), opt.ST, w.S.Dims, budget, rng)
	res.Evaluations += spent
	if err != nil {
		return Result{}, fmt.Errorf("baseline: AN5D found no runnable setting for %s on %s: %w", w.S.Name, arch.Name, err)
	}
	return Result{res, opt.ST}, nil
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

// Tune implements Strategy. Its searches together spend at most budget
// evaluations.
func (Artemis) Tune(m *sim.Model, w sim.Workload, arch gpu.Arch, budget int, seed int64) (Result, error) {
	if budget < 1 {
		return Result{}, fmt.Errorf("baseline: Artemis budget %d < 1", budget)
	}
	rng := rand.New(lazyrand.NewSource(seed))
	var (
		best    Result
		found   bool
		spent   int
		lastErr error
	)
	// Each search resolves the cell, so every search after the first
	// runs on the cell's sample memo.
	search := func(oc opt.Opt, b int) {
		res, err := tuner.Search(m.CellFn(w, arch), oc, w.S.Dims, b, rng)
		spent += res.Evaluations
		if err != nil {
			lastErr = err
		} else if !found || res.Time < best.Time {
			best, found = Result{res, oc}, true
		}
	}

	// Phase 1: tune the high-impact base optimization (streaming).
	search(opt.ST, max(budget/2, 1))

	// Phase 2: spread the remaining budget over the candidate extensions.
	per := max((budget-spent)/len(artemisCandidates), 1)
	for _, oc := range artemisCandidates {
		if spent >= budget {
			break
		}
		search(oc, min(per, budget-spent))
	}
	if !found {
		return Result{}, fmt.Errorf("baseline: Artemis found no runnable setting for %s on %s: %w", w.S.Name, arch.Name, lastErr)
	}
	best.Evaluations = spent
	return best, nil
}
