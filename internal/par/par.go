// Package par is the shared concurrency layer of the reproduction: a
// bounded worker pool whose results are collected in job-index order and
// whose errors aggregate deterministically, so every parallelized path
// (profiling, cross-validation training, boosting, PCC merging, the
// experiment runners) produces output byte-identical to its serial
// counterpart under any GOMAXPROCS or worker count. Workers pull the
// next job index from an atomic counter, which bounds goroutines without
// a job channel; determinism comes from jobs writing only to their own
// index and from sorting the error aggregate by index afterward.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean
// GOMAXPROCS, and the result is clamped to [1, jobs].
func Workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is a job panic converted to an error: the pool recovers
// panics in workers so one bad job cannot crash the whole process, and
// surfaces them through the same IndexedError aggregation as ordinary
// failures. Value is the recovered panic value and Stack the goroutine
// stack captured at recovery.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// safeCall invokes fn(i), converting a panic into a *PanicError.
func safeCall(fn func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// IndexedError ties one job failure to the index it occurred at.
type IndexedError struct {
	Index int
	Err   error
}

// Error implements error.
func (e IndexedError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e IndexedError) Unwrap() error { return e.Err }

// Errors aggregates every job failure of one pool run, sorted by job
// index — the same aggregate regardless of worker scheduling. The pool
// never returns an empty Errors value.
type Errors []IndexedError

// Error implements error, rendering the first failure and the total.
func (e Errors) Error() string {
	if len(e) == 1 {
		return e[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d jobs failed: %v", len(e), e[0])
	if len(e) > 1 {
		fmt.Fprintf(&b, " (and %d more)", len(e)-1)
	}
	return b.String()
}

// Unwrap exposes the underlying errors to errors.Is/As.
func (e Errors) Unwrap() []error {
	out := make([]error, len(e))
	for i, ie := range e {
		out[i] = ie
	}
	return out
}

// First returns the failure with the lowest job index — the error a
// serial loop would have hit first.
func (e Errors) First() error { return e[0].Err }

// ForEach runs fn(i) for every i in [0, n) on at most `workers`
// goroutines (Workers semantics for workers <= 0). Every job runs even
// if earlier jobs fail; failures are aggregated into an Errors value
// ordered by index. A panicking job is recovered rather than crashing
// the process and surfaces as an IndexedError wrapping a *PanicError.
// Cancelling ctx stops new jobs from being dispatched and returns
// ctx.Err(); in-flight jobs complete first.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := Workers(workers, n)
	var errs Errors
	if w == 1 {
		// Serial fast path — identical semantics, no goroutines. This is
		// also the reference ordering the differential tests compare
		// parallel runs against.
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err := safeCall(fn, i); err != nil {
				errs = append(errs, IndexedError{Index: i, Err: err})
			}
		}
		if len(errs) == 0 {
			return nil
		}
		return errs
	}

	var (
		next int64 = -1
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			var local Errors
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || ctx.Err() != nil {
					break
				}
				if err := safeCall(fn, i); err != nil {
					local = append(local, IndexedError{Index: i, Err: err})
				}
			}
			if len(local) > 0 {
				mu.Lock()
				errs = append(errs, local...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return errs
}

// Map runs fn over [0, n) on the bounded pool and returns the results
// in index order. On any failure (or cancellation) the partial results
// are discarded and the aggregated error is returned.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
