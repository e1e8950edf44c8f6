package tuner

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

func setup(t *testing.T) (*sim.Model, sim.Workload, gpu.Arch) {
	t.Helper()
	arch, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(), sim.DefaultWorkload(stencil.Box(3, 2)), arch
}

func TestRandomRespectsBudget(t *testing.T) {
	m, w, arch := setup(t)
	res, err := (Random{}).Tune(m, w, opt.ST, arch, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 20 {
		t.Errorf("evaluations = %d, want 20", res.Evaluations)
	}
	if res.Time <= 0 || math.IsInf(res.Time, 0) {
		t.Errorf("time %g", res.Time)
	}
	if err := res.Params.Validate(opt.ST, 3); err != nil {
		t.Errorf("winning params invalid: %v", err)
	}
}

func TestGeneticRespectsBudget(t *testing.T) {
	m, w, arch := setup(t)
	res, err := (Genetic{}).Tune(m, w, opt.ST|opt.TB, arch, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 40 {
		t.Errorf("evaluations %d exceed budget 40", res.Evaluations)
	}
	if err := res.Params.Validate(opt.ST|opt.TB, 3); err != nil {
		t.Errorf("winning params invalid: %v", err)
	}
}

// TestGeneticCompetitiveWithRandom checks the csTuner claim: on a
// parameter-sensitive OC, the GA should not lose to random search at
// equal budgets (averaged across seeds).
func TestGeneticCompetitiveWithRandom(t *testing.T) {
	m, w, arch := setup(t)
	oc := opt.ST | opt.TB | opt.CM | opt.PR
	var gaBetter int
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		ga, err1 := (Genetic{}).Tune(m, w, oc, arch, 48, seed)
		rd, err2 := (Random{}).Tune(m, w, oc, arch, 48, seed+100)
		if err1 != nil || err2 != nil {
			continue
		}
		if ga.Time <= rd.Time*1.02 { // within 2% counts as no-loss
			gaBetter++
		}
	}
	if gaBetter < trials/2 {
		t.Errorf("GA competitive in only %d/%d trials", gaBetter, trials)
	}
}

func TestTunerErrors(t *testing.T) {
	m, w, arch := setup(t)
	if _, err := (Random{}).Tune(m, w, opt.ST, arch, 0, 1); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := (Genetic{}).Tune(m, w, opt.ST, arch, 0, 1); err == nil {
		t.Error("zero budget accepted")
	}
	// An OC that crashes for this stencil must return an error: TB
	// without ST on a 3-D order-4 stencil.
	// The error wraps the last failure, so it names the cause.
	w4 := sim.DefaultWorkload(stencil.Star(3, 4))
	for _, tu := range []Tuner{Random{}, Genetic{}} {
		_, err := tu.Tune(m, w4, opt.TB, arch, 16, 1)
		if err == nil {
			t.Errorf("crashing OC produced a result (%s)", tu.Name())
		} else if !errors.Is(err, sim.ErrInvalidConfig) && !errors.Is(err, sim.ErrCrash) {
			t.Errorf("%s: error does not wrap the simulator's failure: %v", tu.Name(), err)
		}
	}
}

// TestSearchPicksMinimum: Search returns the first strictly fastest of
// the settings it drew, counts every draw, and returns the last failure
// when nothing runs.
func TestSearchPicksMinimum(t *testing.T) {
	m, w, arch := setup(t)
	cell := m.CellFn(w, arch)
	type drawn struct {
		p   opt.Params
		r   sim.Result
		err error
	}
	var draws []drawn
	eval := func(oc opt.Opt, p opt.Params) (sim.Result, error) {
		r, err := cell(oc, p)
		draws = append(draws, drawn{p, r, err})
		return r, err
	}
	res, err := Search(eval, opt.ST|opt.TB, w.S.Dims, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != len(draws) || len(draws) != 40 {
		t.Fatalf("evaluations %d, draws %d, want 40", res.Evaluations, len(draws))
	}
	var first *drawn
	for i := range draws {
		d := &draws[i]
		if d.err == nil && (first == nil || d.r.Time < first.r.Time) {
			first = d
		}
	}
	if first == nil || res.Time != first.r.Time || res.Params != first.p {
		t.Fatalf("Search kept %+v, the first fastest draw is %+v", res, first)
	}

	failing := func(opt.Opt, opt.Params) (sim.Result, error) { return sim.Result{}, sim.ErrCrash }
	res, err = Search(failing, opt.ST, w.S.Dims, 3, rand.New(rand.NewSource(7)))
	if !errors.Is(err, sim.ErrCrash) || res.Evaluations != 3 {
		t.Fatalf("all-failing search: %+v, %v", res, err)
	}
	if _, err := Search(failing, opt.ST, w.S.Dims, 0, rand.New(rand.NewSource(7))); err == nil {
		t.Fatal("zero-budget search returned no error")
	}
}

func TestCrossoverMutatePreserveValidity(t *testing.T) {
	m, w, arch := setup(t)
	_ = m
	_ = arch
	// Crossover of two valid settings stays structurally valid for the
	// same OC often enough that the repair path is rare; here we just
	// require the tuner end-to-end to emit valid params, already covered
	// above, and verify names.
	if (Random{}).Name() != "random" || (Genetic{}).Name() != "genetic" {
		t.Error("tuner names wrong")
	}
	_ = w
}

// TestGeneticSmallPopulationTerminates is the regression test for the
// elite >= population hang: with Population 2 and the default elite of 2,
// every generation used to carry over only elites, never evaluating, so
// the budget loop spun forever. The tune must finish well within the
// timeout and within its budget.
func TestGeneticSmallPopulationTerminates(t *testing.T) {
	m, w, arch := setup(t)
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := (Genetic{Population: 2}).Tune(m, w, opt.ST, arch, 20, 3)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Evaluations > 20 {
			t.Errorf("evaluations %d exceed budget 20", o.res.Evaluations)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Genetic{Population: 2} did not terminate: elite carry-over starves the evaluation budget")
	}
}

// TestGeneticPopulationOneTerminates covers the degenerate single-slot
// population, where the clamp leaves no elites at all.
func TestGeneticPopulationOneTerminates(t *testing.T) {
	m, w, arch := setup(t)
	done := make(chan error, 1)
	go func() {
		_, err := (Genetic{Population: 1, Elite: 5}).Tune(m, w, opt.ST, arch, 8, 4)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Genetic{Population: 1} did not terminate")
	}
}

func TestGeneticRejectsNegativeMutationRate(t *testing.T) {
	m, w, arch := setup(t)
	if _, err := (Genetic{MutationRate: -0.5}).Tune(m, w, opt.ST, arch, 10, 5); err == nil {
		t.Fatal("negative mutation rate accepted")
	}
}
