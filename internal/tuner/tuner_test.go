package tuner

import (
	"errors"
	"math"
	"math/rand"
	"testing"

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

func TestTunerErrors(t *testing.T) {
	m, w, arch := setup(t)
	if _, err := (Random{}).Tune(m, w, opt.ST, arch, 0, 1); err == nil {
		t.Error("zero budget accepted")
	}
	// An OC that crashes for this stencil must return an error: TB
	// without ST on a 3-D order-4 stencil.
	// The error wraps the last failure, so it names the cause.
	w4 := sim.DefaultWorkload(stencil.Star(3, 4))
	_, err := (Random{}).Tune(m, w4, opt.TB, arch, 16, 1)
	if err == nil {
		t.Error("crashing OC produced a result")
	} else if !errors.Is(err, sim.ErrInvalidConfig) && !errors.Is(err, sim.ErrCrash) {
		t.Errorf("error does not wrap the simulator's failure: %v", err)
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
