// Package tuner implements the paper's parameter-setting search for a
// fixed optimization combination: a best-of-N random search under a hard
// evaluation budget (Search), which the baselines and the
// prediction-time search also run, and Random, its seeded form over one
// simulated cell.
package tuner

import (
	"fmt"
	"math/rand"

	"stencilmart/internal/gpu"
	"stencilmart/internal/lazyrand"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
)

// Result is a tuning outcome.
type Result struct {
	// Time is the best execution time found (seconds).
	Time float64
	// Params is the winning setting.
	Params opt.Params
	// Evaluations is the number of simulator runs consumed.
	Evaluations int
}

// Random is the paper's random parameter search.
type Random struct{}

// Tune returns the best of budget settings of oc drawn from seed, priced
// on w's cell for arch.
func (Random) Tune(m *sim.Model, w sim.Workload, oc opt.Opt, arch gpu.Arch, budget int, seed int64) (Result, error) {
	if budget < 1 {
		return Result{}, fmt.Errorf("tuner: random budget %d < 1", budget)
	}
	res, err := Search(m.CellFn(w, arch), oc, w.S.Dims, budget, rand.New(lazyrand.NewSource(seed)))
	if err != nil {
		return Result{}, fmt.Errorf("tuner: no runnable setting for %s on %s: %w", oc, arch.Name, err)
	}
	return res, nil
}

// Search is the paper's best-of-N parameter search; Random, the
// baselines and the prediction-time search all run it. It draws budget
// settings of oc from rng, prices each through eval, skips the ones that
// fail, and keeps the first strictly fastest. Evaluations counts every
// draw. When no setting runs, the error is the last evaluation's and the
// result carries only Evaluations.
func Search(eval sim.EvalFn, oc opt.Opt, dims, budget int, rng *rand.Rand) (Result, error) {
	var (
		best    Result
		found   bool
		lastErr error
	)
	for i := 0; i < budget; i++ {
		p := opt.Sample(oc, dims, rng)
		r, err := eval(oc, p)
		best.Evaluations++
		if err != nil {
			lastErr = err
			continue
		}
		if !found || r.Time < best.Time {
			best.Time, best.Params, found = r.Time, p, true
		}
	}
	if !found {
		if lastErr == nil {
			lastErr = fmt.Errorf("tuner: search budget %d < 1", budget)
		}
		return Result{Evaluations: best.Evaluations}, lastErr
	}
	return best, nil
}
