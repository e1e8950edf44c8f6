package fault

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

// stub is a sim.Cells double whose cells return a fixed clean time.
type stub struct {
	time  float64
	calls int
}

func (s *stub) CellFn(sim.Workload, gpu.Arch) sim.EvalFn {
	return func(opt.Opt, opt.Params) (sim.Result, error) {
		s.calls++
		return sim.Result{Time: s.time}, nil
	}
}

func testCell(t *testing.T, i int) (sim.Workload, opt.Opt, opt.Params, gpu.Arch) {
	t.Helper()
	s, err := stencil.ByName("star2d1r")
	if err != nil {
		t.Fatalf("stencil: %v", err)
	}
	arch := gpu.Catalog()[0]
	w := sim.DefaultWorkload(s)
	// Vary the setting to vary the site identity.
	p := opt.Params{BlockX: 8 + i, BlockY: 8}
	return w, opt.Opt(0), p, arch
}

// run one attempt, converting an injected panic into a sentinel error.
func attempt(in *Injector, w sim.Workload, oc opt.Opt, p opt.Params, a gpu.Arch) (r sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return in.CellFn(w, a)(oc, p)
}

// TestDeterministicSequence is the injector's core contract: the fault
// outcome of (site, attempt) is identical across injector instances.
func TestDeterministicSequence(t *testing.T) {
	cfg := Config{Seed: 42, PanicRate: 0.1, TransientRate: 0.3, NaNRate: 0.1, InfRate: 0.05, SpikeRate: 0.2, MaxFaultsPerSite: 100}
	trace := func() []string {
		in := Wrap(&stub{time: 2.0}, cfg)
		var out []string
		for site := 0; site < 16; site++ {
			w, oc, p, a := testCell(t, site)
			for k := 0; k < 6; k++ {
				r, err := attempt(in, w, oc, p, a)
				out = append(out, fmt.Sprintf("%d/%d %v %v", site, k, r.Time, err))
			}
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d diverged:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// TestFaultBudget caps injection per site: after MaxFaultsPerSite faults,
// every further attempt at the site is clean.
func TestFaultBudget(t *testing.T) {
	cfg := Config{Seed: 7, TransientRate: 0.9, MaxFaultsPerSite: 2}
	in := Wrap(&stub{time: 3.5}, cfg)
	w, oc, p, a := testCell(t, 0)
	faults := 0
	for k := 0; k < 50; k++ {
		r, err := attempt(in, w, oc, p, a)
		if err != nil {
			faults++
			continue
		}
		if r.Time != 3.5 {
			t.Fatalf("attempt %d: clean time corrupted to %v", k, r.Time)
		}
	}
	if faults != 2 {
		t.Fatalf("injected %d faults at one site, budget is 2", faults)
	}
	if got := in.Stats().Transients; got != 2 {
		t.Fatalf("stats report %d transients, want 2", got)
	}
}

// TestFaultClasses drives enough attempts that every configured class
// fires, and checks each corrupts the measurement the advertised way.
func TestFaultClasses(t *testing.T) {
	cfg := Config{Seed: 3, PanicRate: 0.05, TransientRate: 0.1, NaNRate: 0.1, InfRate: 0.1, SpikeRate: 0.1,
		SpikeFactor: 10, MaxFaultsPerSite: 1}
	in := Wrap(&stub{time: 1.0}, cfg)
	var sawNaN, sawInf, sawSpike, sawPanic, sawTransient bool
	for site := 0; site < 400; site++ {
		w, oc, p, a := testCell(t, site)
		r, err := attempt(in, w, oc, p, a)
		switch {
		case err != nil && IsTransient(err):
			sawTransient = true
		case err != nil:
			sawPanic = true
		case math.IsNaN(r.Time):
			sawNaN = true
		case math.IsInf(r.Time, 1):
			sawInf = true
		case r.Time == 10.0:
			sawSpike = true
		case r.Time != 1.0:
			t.Fatalf("site %d: unexpected time %v", site, r.Time)
		}
	}
	if !sawPanic || !sawTransient || !sawNaN || !sawInf || !sawSpike {
		t.Fatalf("not every class fired: panic=%v transient=%v nan=%v inf=%v spike=%v",
			sawPanic, sawTransient, sawNaN, sawInf, sawSpike)
	}
	st := in.Stats()
	if st.Total() == 0 || st.Attempts != 400 || st.Sites != 400 {
		t.Fatalf("stats off: %+v", st)
	}
}

// TestPermanentErrorsPassThrough keeps real simulator outcomes out of the
// chaos: crash errors from the wrapped cell are returned untouched.
func TestPermanentErrorsPassThrough(t *testing.T) {
	in := Wrap(failCells{}, Config{Seed: 1})
	w, oc, p, a := testCell(t, 0)
	_, err := in.CellFn(w, a)(oc, p)
	if !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("got %v, want ErrCrash", err)
	}
	if IsTransient(err) {
		t.Fatal("crash classified transient")
	}
}

type failCells struct{}

func (failCells) CellFn(sim.Workload, gpu.Arch) sim.EvalFn {
	return func(opt.Opt, opt.Params) (sim.Result, error) { return sim.Result{}, sim.ErrCrash }
}

// TestIsTransientUnwraps classifies wrapped transient errors.
func TestIsTransientUnwraps(t *testing.T) {
	err := fmt.Errorf("cell 3: %w", &TransientError{Site: 1, Attempt: 0})
	if !IsTransient(err) {
		t.Fatal("wrapped transient not classified")
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain error classified transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil classified transient")
	}
}

// TestConfigValidate rejects out-of-range and over-unity rates.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{TransientRate: -0.1},
		{TransientRate: 1.0},
		{PanicRate: 0.5, TransientRate: 0.6},
		{NaNRate: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d validated: %+v", i, c)
		}
	}
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}
