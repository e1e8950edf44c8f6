package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		requested, jobs, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{4, 2, 2},
		{4, 100, 4},
		{1, 0, 1},
		{0, 1, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.jobs); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.jobs, got, c.want)
		}
	}
}

func TestMapIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		got, err := Map(context.Background(), 100, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 0, 4, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Map over 0 jobs = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestForEachRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 257
		var counts [n]int32
		if err := ForEach(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestErrorAggregationDeterministic(t *testing.T) {
	fail := map[int]bool{3: true, 41: true, 7: true}
	var want error
	for _, workers := range []int{1, 2, 8} {
		err := ForEach(context.Background(), 50, workers, func(i int) error {
			if fail[i] {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		var errs Errors
		if !errors.As(err, &errs) {
			t.Fatalf("workers=%d: error type %T", workers, err)
		}
		if len(errs) != len(fail) {
			t.Fatalf("workers=%d: %d errors, want %d", workers, len(errs), len(fail))
		}
		for k := 1; k < len(errs); k++ {
			if errs[k-1].Index >= errs[k].Index {
				t.Fatalf("workers=%d: errors not index-sorted: %v", workers, errs)
			}
		}
		if errs.First().Error() != "boom 3" {
			t.Fatalf("workers=%d: First() = %v, want boom 3", workers, errs.First())
		}
		if want == nil {
			want = err
		} else if err.Error() != want.Error() {
			t.Fatalf("workers=%d: aggregate %q differs from %q", workers, err, want)
		}
	}
}

func TestForEachAllJobsRunDespiteErrors(t *testing.T) {
	var ran int32
	err := ForEach(context.Background(), 20, 4, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i%2 == 0 {
			return errors.New("even")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected aggregate error")
	}
	if ran != 20 {
		t.Fatalf("ran %d jobs, want 20 (errors must not abort remaining work)", ran)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	err := ForEach(ctx, 1000, 2, func(i int) error {
		if atomic.AddInt32(&started, 1) == 4 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&started); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch (%d jobs started)", n)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEach(ctx, 10, 4, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("job ran despite pre-cancelled context")
	}
}

func TestIndexedErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	err := ForEach(context.Background(), 5, 2, func(i int) error {
		if i == 2 {
			return fmt.Errorf("wrapped: %w", sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is failed to find sentinel through %v", err)
	}
}

// TestPanicRecoveredSerial is the regression for the satellite fix: a
// panicking job on the serial fast path must surface as an IndexedError
// wrapping *PanicError instead of crashing the process.
func TestPanicRecoveredSerial(t *testing.T) {
	err := ForEach(context.Background(), 5, 1, func(i int) error {
		if i == 3 {
			panic("boom-serial")
		}
		return nil
	})
	assertPanicErr(t, err, 3, "boom-serial")
}

// TestPanicRecoveredParallel checks the same on the worker-pool path,
// and that remaining jobs still run.
func TestPanicRecoveredParallel(t *testing.T) {
	var ran int32
	err := ForEach(context.Background(), 64, 8, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 17 {
			panic(fmt.Sprintf("boom-%d", i))
		}
		return nil
	})
	assertPanicErr(t, err, 17, "boom-17")
	if n := atomic.LoadInt32(&ran); n != 64 {
		t.Fatalf("%d jobs ran, want all 64 despite the panic", n)
	}
}

// TestPanicRecoveredMap checks Map discards partials and aggregates the
// panic like any other failure.
func TestPanicRecoveredMap(t *testing.T) {
	out, err := Map(context.Background(), 8, 4, func(i int) (int, error) {
		if i == 5 {
			panic(errors.New("boom-map"))
		}
		return i, nil
	})
	if out != nil {
		t.Fatalf("partial results %v survived a panic", out)
	}
	assertPanicErr(t, err, 5, "boom-map")
}

// assertPanicErr unpacks the Errors aggregate down to the *PanicError
// and checks index, value rendering, and a captured stack.
func assertPanicErr(t *testing.T, err error, index int, want string) {
	t.Helper()
	if err == nil {
		t.Fatal("panic was swallowed: nil error")
	}
	var errs Errors
	if !errors.As(err, &errs) {
		t.Fatalf("err %T is not Errors: %v", err, err)
	}
	if len(errs) != 1 || errs[0].Index != index {
		t.Fatalf("aggregate %v, want single failure at index %d", errs, index)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no *PanicError in chain: %v", err)
	}
	if got := fmt.Sprint(pe.Value); got != want {
		t.Fatalf("panic value %q, want %q", got, want)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured at recovery")
	}
}
