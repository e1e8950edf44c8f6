package profile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"stencilmart/internal/fault"
	"stencilmart/internal/opt"
	"stencilmart/internal/par"
	"stencilmart/internal/sim"
)

// Retry defaults: measurement faults only exist on real (or
// fault-injected) substrates, so the defaults favor quick recovery —
// a handful of attempts with millisecond-scale capped backoff.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 5 * time.Millisecond
	DefaultMaxDelay    = 250 * time.Millisecond
)

// RetryPolicy governs how one measurement attempt is retried after a
// transient fault (injected errors, recovered panics, non-finite
// samples). Permanent outcomes — kernel crashes and invalid settings —
// are never retried; they are real profiling results.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts per measurement (first try
	// included); <= 0 selects DefaultMaxAttempts.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry up to MaxDelay. <= 0 selects the defaults.
	BaseDelay, MaxDelay time.Duration
	// Sleep is the injectable clock; nil waits on a timer cancellation
	// cuts short. Tests install a fake to count backoff without waiting.
	Sleep func(time.Duration)
}

// Backoff returns the capped exponential delay before retry number
// `retry` (1-based): base, 2*base, 4*base, ... capped at MaxDelay.
func (rp RetryPolicy) Backoff(retry int) time.Duration {
	base, lim := rp.BaseDelay, rp.MaxDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	if lim <= 0 {
		lim = DefaultMaxDelay
	}
	d := base
	for i := 1; i < retry; i++ {
		// Clamp before doubling: once d passes lim/2 the next doubling
		// would exceed the cap — or, for extreme bases, wrap a
		// time.Duration negative and return a bogus delay.
		if d > lim/2 {
			return lim
		}
		d *= 2
	}
	return min(d, lim)
}

// sleep waits out a backoff; false means done closed first.
func (rp RetryPolicy) sleep(done <-chan struct{}, d time.Duration) bool {
	if rp.Sleep != nil {
		rp.Sleep(d)
		return true
	}
	select {
	case <-time.After(d):
		return true
	case <-done:
		return false
	}
}

// NonFiniteError rejects a NaN or Inf sample at the source: a non-finite
// time is a measurement fault, never a profiling result, so it is
// retried like a transient error and can never reach the dataset.
type NonFiniteError struct {
	Time float64
}

// Error implements error.
func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("profile: non-finite measured time %v", e.Time)
}

// Transient marks the sample as retryable.
func (e *NonFiniteError) Transient() bool { return true }

// GiveUpError reports that every retry attempt of one measurement
// faulted; Last is the final attempt's fault.
type GiveUpError struct {
	Attempts int
	Last     error
}

// Error implements error.
func (e *GiveUpError) Error() string {
	return fmt.Sprintf("profile: gave up after %d attempts: %v", e.Attempts, e.Last)
}

// Unwrap exposes the final fault to errors.Is/As.
func (e *GiveUpError) Unwrap() error { return e.Last }

// runRecover executes one measurement attempt, converting a panic in the
// substrate into a retryable *par.PanicError instead of unwinding the
// worker. The measurement path is a per-cell eval closure: the profiler
// resolves the (workload, arch) cell once and the sample loop carries
// only (OC, params).
func runRecover(eval sim.EvalFn, oc opt.Opt, p opt.Params) (res sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &par.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return eval(oc, p)
}

// measureAttempts is the retry loop around one (setting, trial)
// measurement: transient faults back off and retry up to the policy's
// attempt budget; permanent outcomes return immediately. ctx's Done is
// polled before every attempt and cuts a backoff short; Err, which takes
// the context's lock, is read only once Done has closed.
func (p *Profiler) measureAttempts(ctx context.Context, eval sim.EvalFn, oc opt.Opt, params opt.Params) (sim.Result, error) {
	pol := p.Retry
	attempts := pol.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	done := ctx.Done()
	var last error
	for a := 0; a < attempts; a++ {
		select {
		case <-done:
			return sim.Result{}, ctx.Err()
		default:
		}
		if a > 0 && !pol.sleep(done, pol.Backoff(a)) {
			return sim.Result{}, ctx.Err()
		}
		r, err := runRecover(eval, oc, params)
		if err == nil && (math.IsNaN(r.Time) || math.IsInf(r.Time, 0)) {
			err = &NonFiniteError{Time: r.Time}
		}
		if err == nil {
			return r, nil
		}
		if !fault.IsTransient(err) {
			return sim.Result{}, err
		}
		last = err
	}
	return sim.Result{}, &GiveUpError{Attempts: attempts, Last: last}
}

// measure runs the configured number of repeated trials of one setting
// and keeps the median time — a single latency spike that slips past
// the error path cannot move the recorded value as long as a majority
// of trials are clean. The returned Result is the first trial's
// breakdown with Time replaced by the median. The single-trial default
// skips the trial buffer entirely, keeping the per-sample path
// allocation-free on the compiled substrate.
func (p *Profiler) measure(ctx context.Context, eval sim.EvalFn, oc opt.Opt, params opt.Params) (sim.Result, error) {
	rep, err := p.measureAttempts(ctx, eval, oc, params)
	if err != nil || p.Trials <= 1 {
		return rep, err
	}
	times := make([]float64, p.Trials)
	times[0] = rep.Time
	for t := 1; t < len(times); t++ {
		r, err := p.measureAttempts(ctx, eval, oc, params)
		if err != nil {
			return sim.Result{}, err
		}
		times[t] = r.Time
	}
	sort.Float64s(times)
	mid := len(times) / 2
	rep.Time = times[mid]
	if len(times)%2 == 0 {
		rep.Time = (times[mid-1] + times[mid]) / 2
	}
	return rep, nil
}

// cellFailure classifies a measurement error as fatal for the cell:
// exhausted retries and cancellation fail the cell, while permanent
// simulator outcomes (crashes, invalid settings) are ordinary profiling
// results the sample loop skips.
func cellFailure(err error) bool {
	// A walk down the chain, not errors.As: As wants the address of a
	// target, which escapes — an allocation per rejected sample.
	for e := err; e != nil; e = errors.Unwrap(e) {
		if _, ok := e.(*GiveUpError); ok {
			return true
		}
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
