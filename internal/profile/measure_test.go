package profile_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/par"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/testutil"
)

// cellsFunc adapts a function to sim.Cells.
type cellsFunc func(sim.Workload, gpu.Arch) sim.EvalFn

func (f cellsFunc) CellFn(w sim.Workload, arch gpu.Arch) sim.EvalFn { return f(w, arch) }

// TestPermanentOutcomesNotRetried: a crashing setting is a profiling
// result, not a fault. Every sampled setting is measured exactly once,
// the crashing ones are skipped, and an OC whose every setting crashed
// is marked Crashed.
func TestPermanentOutcomesNotRetried(t *testing.T) {
	const samples = 3
	crashes := func(oc opt.Opt) bool { return oc&opt.TB != 0 }
	var calls atomic.Int64
	cells := cellsFunc(func(sim.Workload, gpu.Arch) sim.EvalFn {
		return func(oc opt.Opt, _ opt.Params) (sim.Result, error) {
			calls.Add(1)
			if crashes(oc) {
				return sim.Result{}, sim.ErrCrash
			}
			return sim.Result{Time: 2.5}, nil
		}
	})
	p := &profile.Profiler{Model: cells, SamplesPerOC: samples, Seed: 7}
	prof, inst, err := p.ProfileOne(context.Background(), 0, stencil.Star(2, 1), gpu.Catalog()[0])
	if err != nil {
		t.Fatalf("ProfileOne with crashing OCs: %v", err)
	}
	if got, want := calls.Load(), int64(opt.NumCombinations*samples); got != want {
		t.Fatalf("%d measurements, want each of the %d sampled settings measured once", got, want)
	}
	crashed := 0
	for _, r := range prof.Results {
		if r.Crashed != crashes(r.OC) {
			t.Errorf("%s: Crashed = %v", r.OC, r.Crashed)
		}
		if r.Crashed {
			crashed++
		}
	}
	if crashed == 0 || crashed == len(prof.Results) {
		t.Fatalf("%d of %d OCs crashed; the fixture crashes some, not all", crashed, len(prof.Results))
	}
	if want := samples * (len(prof.Results) - crashed); len(inst) != want {
		t.Fatalf("%d instances, want %d (the settings that ran)", len(inst), want)
	}
	for _, in := range inst {
		if crashes(in.OC) {
			t.Fatalf("a crashed setting of %s reached the instances", in.OC)
		}
	}
}

// TestNonFiniteRejectedAtSource: a NaN or Inf time can only come from a
// simulator bug, so one such sample fails its cell and the collection at
// once, and no instance with that time reaches a dataset.
func TestNonFiniteRejectedAtSource(t *testing.T) {
	ctx := context.Background()
	corpus, archs := testutil.SmallCorpus(t)[:2], gpu.Catalog()[:2]
	model := sim.New()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// The tenth sample of each arch[1] cell answers bad; every other
		// sample is the simulator's.
		cells := cellsFunc(func(w sim.Workload, arch gpu.Arch) sim.EvalFn {
			eval := model.CellFn(w, arch)
			if arch.Name != archs[1].Name {
				return eval
			}
			n := 0 // one cell is measured on one goroutine
			return func(oc opt.Opt, p opt.Params) (sim.Result, error) {
				if n++; n == 10 {
					return sim.Result{Time: bad}, nil
				}
				return eval(oc, p)
			}
		})
		p := &profile.Profiler{Model: cells, SamplesPerOC: 2, Seed: 11}
		ds, err := p.Collect(ctx, corpus, archs)
		if err == nil || !strings.Contains(err.Error(), "non-finite") || ds != nil {
			t.Fatalf("time %v: Collect returned dataset %v, err %v; want no dataset and a non-finite error", bad, ds != nil, err)
		}
		if _, inst, err := p.ProfileOne(ctx, 0, corpus[0], archs[1]); err == nil || inst != nil {
			t.Fatalf("time %v: ProfileOne returned %d instances, err %v; want none and an error", bad, len(inst), err)
		}
	}
}

// TestMeasurementPanicFailsCollect: a panic in the substrate is not
// recovered per sample. The worker pool recovers it, so Collect fails
// with a *par.PanicError in the chain instead of crashing the process.
func TestMeasurementPanicFailsCollect(t *testing.T) {
	corpus, archs := testutil.SmallCorpus(t)[:2], gpu.Catalog()[:2]
	cells := cellsFunc(func(sim.Workload, gpu.Arch) sim.EvalFn {
		return func(opt.Opt, opt.Params) (sim.Result, error) { panic("scripted measurement panic") }
	})
	for _, workers := range []int{1, 4} {
		p := &profile.Profiler{Model: cells, SamplesPerOC: 1, Seed: 7, Workers: workers}
		ds, err := p.Collect(context.Background(), corpus, archs)
		var pe *par.PanicError
		if ds != nil || !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Collect returned dataset %v, err %v; want no dataset and a *par.PanicError", workers, ds != nil, err)
		}
		if got := fmt.Sprint(pe.Value); got != "scripted measurement panic" {
			t.Fatalf("workers=%d: panic value %q", workers, got)
		}
	}
}

// errCountingCtx counts calls to Err, which takes a cancelable context's
// lock.
type errCountingCtx struct {
	context.Context
	errs atomic.Int64
}

func (c *errCountingCtx) Err() error {
	c.errs.Add(1)
	return c.Context.Err()
}

// TestCancellationPolledWithoutErr pins the polling contract: a cell
// reads its context's Done channel per sample and calls Err only once
// Done has closed, so workers sharing one context share no lock per
// sample.
func TestCancellationPolledWithoutErr(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &errCountingCtx{Context: parent}
	p := profile.NewProfiler(4, 3)
	arch := gpu.Catalog()[0]
	if _, inst, err := p.ProfileOne(ctx, 0, stencil.Star(2, 1), arch); err != nil || len(inst) == 0 {
		t.Fatalf("ProfileOne: %d instances, err %v", len(inst), err)
	}
	if n := ctx.errs.Load(); n != 0 {
		t.Fatalf("a live context's Err was called %d times in one cell, want 0", n)
	}
	cancel()
	if _, _, err := p.ProfileOne(ctx, 0, stencil.Star(2, 1), arch); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ProfileOne: got %v, want context.Canceled", err)
	}
	if n := ctx.errs.Load(); n != 1 {
		t.Fatalf("a cancelled cell called Err %d times, want once", n)
	}
}
