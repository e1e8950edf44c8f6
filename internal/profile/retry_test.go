package profile_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stencilmart/internal/fault"
	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/par"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

// scriptedCells is a measurement double: per site (canonical run key)
// it fails the first failsPerSite attempts the scripted way, then
// returns a clean fixed time. It also counts attempts per site.
type scriptedCells struct {
	failsPerSite int
	mode         string // "transient", "crash", "nan", "panic"
	time         float64

	mu       sync.Mutex
	attempts map[string]int
}

func (r *scriptedCells) CellFn(w sim.Workload, arch gpu.Arch) sim.EvalFn {
	return func(oc opt.Opt, p opt.Params) (sim.Result, error) {
		key := sim.RunKey(w, oc, p, arch)
		r.mu.Lock()
		if r.attempts == nil {
			r.attempts = make(map[string]int)
		}
		n := r.attempts[key]
		r.attempts[key] = n + 1
		r.mu.Unlock()
		if n < r.failsPerSite {
			switch r.mode {
			case "transient":
				return sim.Result{}, &fault.TransientError{Site: 1, Attempt: n}
			case "crash":
				return sim.Result{}, sim.ErrCrash
			case "nan":
				return sim.Result{Time: math.NaN()}, nil
			case "panic":
				panic("scripted measurement panic")
			}
		}
		return sim.Result{Time: r.time}, nil
	}
}

// attemptCounts snapshots per-site attempt counts.
func (r *scriptedCells) attemptCounts() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.attempts))
	for _, n := range r.attempts {
		out = append(out, n)
	}
	return out
}

// retryProfiler builds a single-sample profiler over the given cells
// with a fake clock that records backoff delays.
func retryProfiler(cells sim.Cells, maxAttempts int, slept *[]time.Duration) *profile.Profiler {
	var mu sync.Mutex
	return &profile.Profiler{
		Model:        cells,
		SamplesPerOC: 1,
		Seed:         7,
		Retry: profile.RetryPolicy{
			MaxAttempts: maxAttempts,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    40 * time.Millisecond,
			Sleep: func(d time.Duration) {
				mu.Lock()
				*slept = append(*slept, d)
				mu.Unlock()
			},
		},
	}
}

// TestRetryRecoversTransients is the core retry contract: transient
// faults back off, retry, and the clean measurement lands in the
// profile with the exact attempt count and backoff schedule.
func TestRetryRecoversTransients(t *testing.T) {
	runner := &scriptedCells{failsPerSite: 3, mode: "transient", time: 2.5}
	var slept []time.Duration
	p := retryProfiler(runner, 5, &slept)
	arch := gpu.Catalog()[0]
	prof, inst, err := p.ProfileOne(context.Background(), 0, stencil.Star(2, 1), arch)
	if err != nil {
		t.Fatalf("ProfileOne under transient faults: %v", err)
	}
	if prof.BestTime != 2.5 || len(inst) != opt.NumCombinations {
		t.Fatalf("best %v with %d instances, want 2.5 with %d", prof.BestTime, len(inst), opt.NumCombinations)
	}
	for _, n := range runner.attemptCounts() {
		if n != 4 {
			t.Fatalf("site saw %d attempts, want 3 failures + 1 success", n)
		}
	}
	// Capped exponential backoff: 10ms, 20ms, 40ms per measurement.
	if len(slept) != 3*opt.NumCombinations {
		t.Fatalf("%d sleeps, want 3 per OC site", len(slept))
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	for i, d := range slept[:3] {
		if d != want[i] {
			t.Fatalf("backoff %d = %v, want %v", i+1, d, want[i])
		}
	}
}

// TestRetryGiveUpClassification exhausts the attempt budget and checks
// the error class: a *GiveUpError carrying the final transient fault.
func TestRetryGiveUpClassification(t *testing.T) {
	runner := &scriptedCells{failsPerSite: 1 << 30, mode: "transient"}
	var slept []time.Duration
	p := retryProfiler(runner, 3, &slept)
	_, _, err := p.ProfileOne(context.Background(), 0, stencil.Star(2, 1), gpu.Catalog()[0])
	if err == nil {
		t.Fatal("permanently-transient runner did not fail the cell")
	}
	var give *profile.GiveUpError
	if !errors.As(err, &give) {
		t.Fatalf("error %v is not a GiveUpError", err)
	}
	if give.Attempts != 3 {
		t.Fatalf("gave up after %d attempts, budget was 3", give.Attempts)
	}
	if !fault.IsTransient(give.Last) {
		t.Fatalf("give-up cause %v should classify transient", give.Last)
	}
	// The first site exhausted the budget: exactly MaxAttempts attempts.
	for _, n := range runner.attemptCounts() {
		if n != 3 {
			t.Fatalf("site saw %d attempts, want exactly the budget of 3", n)
		}
	}
}

// TestPermanentOutcomesNotRetried keeps real profiling results out of
// the retry loop: a deterministic kernel crash is measured once and
// never slept on.
func TestPermanentOutcomesNotRetried(t *testing.T) {
	runner := &scriptedCells{failsPerSite: 1 << 30, mode: "crash"}
	var slept []time.Duration
	p := retryProfiler(runner, 5, &slept)
	_, _, err := p.ProfileOne(context.Background(), 0, stencil.Star(2, 1), gpu.Catalog()[0])
	if err == nil || len(slept) != 0 {
		t.Fatalf("crash handling wrong: err=%v sleeps=%d (want every-OC-crashed error, 0 sleeps)", err, len(slept))
	}
	for _, n := range runner.attemptCounts() {
		if n != 1 {
			t.Fatalf("crashing site saw %d attempts, want 1 (no retries)", n)
		}
	}
}

// TestNonFiniteRejectedAtSource: a NaN sample never reaches the
// dataset — it retries and the recovered finite value is recorded.
func TestNonFiniteRejectedAtSource(t *testing.T) {
	runner := &scriptedCells{failsPerSite: 1, mode: "nan", time: 1.25}
	var slept []time.Duration
	p := retryProfiler(runner, 4, &slept)
	prof, inst, err := p.ProfileOne(context.Background(), 0, stencil.Star(2, 1), gpu.Catalog()[0])
	if err != nil {
		t.Fatalf("ProfileOne under NaN injection: %v", err)
	}
	for _, in := range inst {
		if math.IsNaN(in.Time) || math.IsInf(in.Time, 0) {
			t.Fatalf("non-finite time %v reached the dataset", in.Time)
		}
	}
	if prof.BestTime != 1.25 {
		t.Fatalf("best time %v, want the clean 1.25", prof.BestTime)
	}

	// And when NaN persists past the budget, the give-up wraps the
	// non-finite rejection.
	always := &scriptedCells{failsPerSite: 1 << 30, mode: "nan"}
	p2 := retryProfiler(always, 2, &slept)
	_, _, err = p2.ProfileOne(context.Background(), 0, stencil.Star(2, 1), gpu.Catalog()[0])
	var nf *profile.NonFiniteError
	if !errors.As(err, &nf) {
		t.Fatalf("error %v does not carry the NonFiniteError cause", err)
	}
}

// TestMeasurementPanicRetried: a panic in the substrate is recovered
// inside the measurement (not just the worker pool) and retried like a
// transient fault.
func TestMeasurementPanicRetried(t *testing.T) {
	runner := &scriptedCells{failsPerSite: 2, mode: "panic", time: 3.0}
	var slept []time.Duration
	p := retryProfiler(runner, 4, &slept)
	prof, _, err := p.ProfileOne(context.Background(), 0, stencil.Star(2, 1), gpu.Catalog()[0])
	if err != nil {
		t.Fatalf("ProfileOne under panics: %v", err)
	}
	if prof.BestTime != 3.0 {
		t.Fatalf("best time %v, want 3.0", prof.BestTime)
	}

	// A panic that persists past the budget surfaces as a give-up whose
	// cause is the recovered panic.
	always := &scriptedCells{failsPerSite: 1 << 30, mode: "panic"}
	p2 := retryProfiler(always, 2, &slept)
	_, _, err = p2.ProfileOne(context.Background(), 0, stencil.Star(2, 1), gpu.Catalog()[0])
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not carry the recovered panic", err)
	}
}

// TestBackoffSchedule pins the capped-exponential shape directly.
func TestBackoffSchedule(t *testing.T) {
	rp := profile.RetryPolicy{BaseDelay: 3 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	want := []time.Duration{3, 6, 12, 20, 20}
	for i, w := range want {
		if got := rp.Backoff(i + 1); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	// Zero-valued policy falls back to the documented defaults.
	var zero profile.RetryPolicy
	if zero.Backoff(1) != profile.DefaultBaseDelay {
		t.Fatalf("default first backoff %v", zero.Backoff(1))
	}
}

// TestBackoffOverflow: extreme policies must clamp, not wrap. Doubling
// a huge BaseDelay used to overflow time.Duration negative and return a
// bogus (negative or tiny) delay instead of MaxDelay.
func TestBackoffOverflow(t *testing.T) {
	huge := time.Duration(1) << 62
	cases := []profile.RetryPolicy{
		{BaseDelay: huge, MaxDelay: huge},
		{BaseDelay: huge / 3, MaxDelay: huge},
		{BaseDelay: time.Nanosecond, MaxDelay: huge},
		{BaseDelay: huge, MaxDelay: time.Second},
		{BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
	}
	for ci, rp := range cases {
		prev := time.Duration(0)
		for retry := 1; retry <= 70; retry++ {
			d := rp.Backoff(retry)
			if d <= 0 || d > rp.MaxDelay {
				t.Fatalf("case %d: Backoff(%d) = %v outside (0, %v]", ci, retry, d, rp.MaxDelay)
			}
			if d < prev {
				t.Fatalf("case %d: Backoff(%d) = %v shrank from %v", ci, retry, d, prev)
			}
			prev = d
		}
		if got := rp.Backoff(70); got != rp.MaxDelay {
			t.Fatalf("case %d: deep retry Backoff = %v, want the %v cap", ci, got, rp.MaxDelay)
		}
	}
}

// cellsFunc adapts a function to sim.Cells.
type cellsFunc func(sim.Workload, gpu.Arch) sim.EvalFn

func (f cellsFunc) CellFn(w sim.Workload, arch gpu.Arch) sim.EvalFn { return f(w, arch) }

// TestBackoffCutShortByCancellation: with no injected clock a backoff
// waits on a timer that the context's deadline cuts short, so a deadline
// shorter than the backoff ends the collection at the deadline, not after
// the whole backoff.
func TestBackoffCutShortByCancellation(t *testing.T) {
	runner := &scriptedCells{failsPerSite: math.MaxInt, mode: "transient"}
	p := &profile.Profiler{
		Model: runner, SamplesPerOC: 1, Seed: 1, Workers: 1,
		Retry: profile.RetryPolicy{MaxAttempts: 3, BaseDelay: 400 * time.Millisecond, MaxDelay: 400 * time.Millisecond},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Collect(ctx, []stencil.Stencil{stencil.Star(2, 1)}, gpu.Catalog()[:1])
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want the cell deadline to fire", err)
	}
	if took >= 100*time.Millisecond {
		t.Fatalf("Collect returned after %v: the 400ms backoff slept through the 10ms deadline", took)
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
