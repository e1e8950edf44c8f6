// Package tuner implements parameter-setting search strategies for a
// fixed optimization combination: the random search the paper's pipeline
// uses (Search, which the baselines and the prediction-time search also
// run), and a genetic algorithm in the spirit of csTuner (Sun et al.,
// CLUSTER'21 — the paper's reference [25]), with tournament selection,
// field-wise crossover, mutation by resampling, and elitism, all under a
// hard evaluation budget so strategies are comparable.
package tuner

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

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

// Tuner searches one OC's parameter space for one workload.
type Tuner interface {
	// Name identifies the strategy.
	Name() string
	// Tune returns the best setting found within the evaluation budget.
	Tune(m *sim.Model, w sim.Workload, oc opt.Opt, arch gpu.Arch, budget int, seed int64) (Result, error)
}

// Random is the paper's random parameter search.
type Random struct{}

// Name implements Tuner.
func (Random) Name() string { return "random" }

// Tune implements Tuner.
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

// Genetic is the csTuner-style GA.
type Genetic struct {
	// Population is the per-generation size; 0 means 8.
	Population int
	// MutationRate is the per-field resampling probability; 0 means 0.25.
	MutationRate float64
	// Elite is the number of top settings carried over; 0 means 2.
	Elite int
}

// Name implements Tuner.
func (Genetic) Name() string { return "genetic" }

type individual struct {
	p    opt.Params
	time float64 // +Inf when the setting cannot run
}

// Tune implements Tuner.
func (g Genetic) Tune(m *sim.Model, w sim.Workload, oc opt.Opt, arch gpu.Arch, budget int, seed int64) (Result, error) {
	if budget < 1 {
		return Result{}, fmt.Errorf("tuner: genetic budget %d < 1", budget)
	}
	if g.MutationRate < 0 {
		return Result{}, fmt.Errorf("tuner: negative mutation rate %v", g.MutationRate)
	}
	pop := g.Population
	if pop == 0 {
		pop = 8
	}
	if pop > budget {
		pop = budget
	}
	mut := g.MutationRate
	if mut == 0 {
		mut = 0.25
	}
	elite := g.Elite
	if elite == 0 {
		elite = 2
	}
	if elite < 0 {
		elite = 0
	}
	// Elites are carried over without re-evaluation, so a generation must
	// leave at least one slot for a fresh evaluation: with elite >= pop the
	// loop below would copy the whole population forever while evals never
	// advances toward the budget.
	if elite >= pop {
		elite = pop - 1
	}
	rng := rand.New(lazyrand.NewSource(seed))

	evals := 0
	var lastErr error
	eval := m.CellFn(w, arch)
	evaluate := func(p opt.Params) individual {
		r, err := eval(oc, p)
		evals++
		if err != nil {
			lastErr = err
			return individual{p: p, time: math.Inf(1)}
		}
		return individual{p: p, time: r.Time}
	}

	// Seed generation.
	cur := make([]individual, 0, pop)
	for i := 0; i < pop && evals < budget; i++ {
		cur = append(cur, evaluate(opt.Sample(oc, w.S.Dims, rng)))
	}
	sortPop(cur)

	for evals < budget {
		next := make([]individual, 0, pop)
		next = append(next, cur[:minInt(elite, len(cur))]...)
		for len(next) < pop && evals < budget {
			a := tournament(cur, rng)
			b := tournament(cur, rng)
			child := crossover(a.p, b.p, rng)
			child = mutate(child, oc, w.S.Dims, mut, rng)
			if err := child.Validate(oc, w.S.Dims); err != nil {
				// Repair by resampling; still costs an evaluation slot
				// only when simulated.
				child = opt.Sample(oc, w.S.Dims, rng)
			}
			next = append(next, evaluate(child))
		}
		sortPop(next)
		cur = next
	}

	sortPop(cur)
	if len(cur) == 0 || math.IsInf(cur[0].time, 1) {
		return Result{}, fmt.Errorf("tuner: no runnable setting for %s on %s: %w", oc, arch.Name, lastErr)
	}
	return Result{Time: cur[0].time, Params: cur[0].p, Evaluations: evals}, nil
}

func sortPop(pop []individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].time < pop[j].time })
}

// tournament picks the better of two random individuals.
func tournament(pop []individual, rng *rand.Rand) individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if a.time <= b.time {
		return a
	}
	return b
}

// crossover mixes fields of two settings uniformly.
func crossover(a, b opt.Params, rng *rand.Rand) opt.Params {
	pick := func(x, y int) int {
		if rng.Intn(2) == 0 {
			return x
		}
		return y
	}
	out := a
	out.BlockX = pick(a.BlockX, b.BlockX)
	out.BlockY = pick(a.BlockY, b.BlockY)
	out.Merge = pick(a.Merge, b.Merge)
	out.MergeDim = pick(a.MergeDim, b.MergeDim)
	out.StreamTile = pick(a.StreamTile, b.StreamTile)
	out.StreamDim = pick(a.StreamDim, b.StreamDim)
	out.Unroll = pick(a.Unroll, b.Unroll)
	out.TBDepth = pick(a.TBDepth, b.TBDepth)
	out.PrefetchDepth = pick(a.PrefetchDepth, b.PrefetchDepth)
	if rng.Intn(2) == 0 {
		out.UseSmem = b.UseSmem
	}
	return out
}

// mutate resamples a fresh setting and copies random fields from it.
func mutate(p opt.Params, oc opt.Opt, dims int, rate float64, rng *rand.Rand) opt.Params {
	fresh := opt.Sample(oc, dims, rng)
	maybe := func(cur, alt int) int {
		if rng.Float64() < rate {
			return alt
		}
		return cur
	}
	p.BlockX = maybe(p.BlockX, fresh.BlockX)
	p.BlockY = maybe(p.BlockY, fresh.BlockY)
	p.Merge = maybe(p.Merge, fresh.Merge)
	p.MergeDim = maybe(p.MergeDim, fresh.MergeDim)
	p.StreamTile = maybe(p.StreamTile, fresh.StreamTile)
	p.StreamDim = maybe(p.StreamDim, fresh.StreamDim)
	p.Unroll = maybe(p.Unroll, fresh.Unroll)
	p.TBDepth = maybe(p.TBDepth, fresh.TBDepth)
	p.PrefetchDepth = maybe(p.PrefetchDepth, fresh.PrefetchDepth)
	if rng.Float64() < rate {
		p.UseSmem = fresh.UseSmem
	}
	return p
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
