package batch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoScore doubles every request; the canonical correct-fan-out oracle.
func echoScore(reqs []int) []Outcome[int] {
	outs := make([]Outcome[int], len(reqs))
	for i, q := range reqs {
		outs[i] = Outcome[int]{Value: q * 2}
	}
	return outs
}

// gate is a score function the test holds shut: every batch the lane
// starts is announced on entered and then waits for one token on release
// before scoring through inner. While a batch is held the lane is busy,
// so later calls queue behind it and the test decides, by waiting on
// Stats.Queued, exactly what the next batch will contain.
type gate struct {
	entered chan []int
	release chan struct{}
	inner   ScoreFunc[int, int]
}

// newGate's channels are buffered past any test's batch count, so neither
// the lane nor the test ever blocks on the bookkeeping itself.
func newGate(inner ScoreFunc[int, int]) *gate {
	return &gate{entered: make(chan []int, 16), release: make(chan struct{}, 16), inner: inner}
}

func (g *gate) score(reqs []int) []Outcome[int] {
	g.entered <- append([]int(nil), reqs...)
	<-g.release
	return g.inner(reqs)
}

// next returns the batch the lane has just started (and is now held in).
func (g *gate) next(t *testing.T) []int {
	t.Helper()
	select {
	case reqs := <-g.entered:
		return reqs
	case <-time.After(10 * time.Second):
		t.Fatal("the lane never started a batch")
		return nil
	}
}

// waitQueued blocks until exactly n calls sit in the lane's backlog.
func waitQueued(t *testing.T, c *Coalescer[int, int], n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Queued != n; {
		if time.Now().After(deadline) {
			t.Fatalf("queued %d, want %d", c.Stats().Queued, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// doAsync submits req on a fresh goroutine and returns a channel with the
// result.
func doAsync(c *Coalescer[int, int], ctx context.Context, req int) chan Outcome[int] {
	ch := make(chan Outcome[int], 1)
	go func() {
		v, err := c.Do(ctx, req)
		ch <- Outcome[int]{Value: v, Err: err}
	}()
	return ch
}

func await(t *testing.T, ch chan Outcome[int]) Outcome[int] {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(10 * time.Second):
		t.Fatal("request never completed")
		return Outcome[int]{}
	}
}

// holdLane submits one plug request and returns once the lane is held
// inside its batch: from here on every Do queues.
func holdLane(t *testing.T, c *Coalescer[int, int], g *gate) chan Outcome[int] {
	t.Helper()
	plug := doAsync(c, context.Background(), 0)
	if got := g.next(t); len(got) != 1 {
		t.Fatalf("plug batch %v, want the plug alone", got)
	}
	return plug
}

// TestLoneRequestScoredAlone: on an idle lane a request is its own batch,
// scored at once — nothing waits for a batchmate that is not there. Ten in
// a row give ten batches of one.
func TestLoneRequestScoredAlone(t *testing.T) {
	c := New(Options[int]{MaxBatch: 8}, echoScore)
	defer c.Close()
	for i := 0; i < 10; i++ {
		if v, err := c.Do(context.Background(), i); err != nil || v != i*2 {
			t.Fatalf("request %d got (%d, %v)", i, v, err)
		}
	}
	st := c.Stats()
	if st.Batches != 10 || st.Requests != 10 || st.WindowFlushes != 10 || st.SizeFlushes != 0 || st.MaxBatch != 1 || st.Queued != 0 {
		t.Fatalf("stats %+v, want ten partial batches of 1 and an empty queue", st)
	}
}

// TestQueuedCallsFormOneBatch: k <= MaxBatch calls that arrive while the
// lane is busy score as one batch of k the moment it goes idle, each
// waiter receiving its own result.
func TestQueuedCallsFormOneBatch(t *testing.T) {
	g := newGate(echoScore)
	c := New(Options[int]{MaxBatch: 8}, g.score)
	defer c.Close()
	plug := holdLane(t, c, g)

	const k = 5
	results := make([]chan Outcome[int], k)
	for i := range results {
		results[i] = doAsync(c, context.Background(), i+1)
	}
	waitQueued(t, c, k)
	g.release <- struct{}{} // the plug scores; the lane finds k queued
	if got := g.next(t); len(got) != k {
		t.Fatalf("second batch %v, want all %d queued calls", got, k)
	}
	g.release <- struct{}{}
	await(t, plug)
	for i, res := range results {
		if out := await(t, res); out.Err != nil || out.Value != (i+1)*2 {
			t.Errorf("request %d got (%d, %v), want (%d, nil)", i, out.Value, out.Err, (i+1)*2)
		}
	}
	st := c.Stats()
	if st.Batches != 2 || st.Requests != k+1 || st.SizeFlushes != 0 || st.WindowFlushes != 2 || st.MaxBatch != k {
		t.Fatalf("stats %+v, want the plug and one partial batch of %d", st, k)
	}
}

// TestMaxBatchSaturationFlush: MaxBatch+r calls queued behind a busy lane
// give one full batch, then one of the r left over.
func TestMaxBatchSaturationFlush(t *testing.T) {
	g := newGate(echoScore)
	c := New(Options[int]{MaxBatch: 3}, g.score)
	defer c.Close()
	plug := holdLane(t, c, g)

	const n = 3 + 2
	results := make([]chan Outcome[int], n)
	for i := range results {
		results[i] = doAsync(c, context.Background(), i+10)
	}
	waitQueued(t, c, n)
	for _, want := range []int{3, 2} {
		g.release <- struct{}{}
		if got := g.next(t); len(got) != want {
			t.Fatalf("batch %v, want %d calls", got, want)
		}
	}
	g.release <- struct{}{}
	await(t, plug)
	for i, res := range results {
		if out := await(t, res); out.Err != nil || out.Value != (i+10)*2 {
			t.Fatalf("request %d got (%d, %v)", i, out.Value, out.Err)
		}
	}
	st := c.Stats()
	if st.Batches != 3 || st.SizeFlushes != 1 || st.WindowFlushes != 2 || st.MaxBatch != 3 {
		t.Fatalf("stats %+v, want one size flush of 3 between two partial batches", st)
	}
}

// TestCancellationMidBatch: a waiter that cancels while its call is
// queued gets ctx.Err immediately; the call still scores with its batch,
// its batchmate is scored normally and the lane keeps serving.
func TestCancellationMidBatch(t *testing.T) {
	g := newGate(echoScore)
	c := New(Options[int]{MaxBatch: 2}, g.score)
	defer c.Close()
	plug := holdLane(t, c, g)

	ctx, cancel := context.WithCancel(context.Background())
	resA := doAsync(c, ctx, 1)
	waitQueued(t, c, 1)
	cancel()
	if out := await(t, resA); !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("cancelled waiter got (%d, %v), want context.Canceled", out.Value, out.Err)
	}

	// B joins A in the queue; B must succeed even though its batchmate
	// abandoned the wait.
	resB := doAsync(c, context.Background(), 2)
	waitQueued(t, c, 2)
	g.release <- struct{}{}
	if got := g.next(t); len(got) != 2 {
		t.Fatalf("batch %v, want the cancelled call and its mate", got)
	}
	g.release <- struct{}{}
	await(t, plug)
	if out := await(t, resB); out.Err != nil || out.Value != 4 {
		t.Fatalf("batchmate of cancelled waiter got (%d, %v), want (4, nil)", out.Value, out.Err)
	}

	// The lane survives for the next batch.
	resC := doAsync(c, context.Background(), 3)
	g.next(t)
	g.release <- struct{}{}
	if out := await(t, resC); out.Err != nil || out.Value != 6 {
		t.Fatalf("post-cancellation request got (%d, %v), want (6, nil)", out.Value, out.Err)
	}
	if st := c.Stats(); st.Requests != 4 {
		t.Fatalf("stats %+v: the cancelled request must still have been scored", st)
	}
}

// TestScorePanicFailsBatchNotLane: a panicking score function fails every
// waiter in its batch with an error naming the panic, and the lane keeps
// scoring subsequent batches.
func TestScorePanicFailsBatchNotLane(t *testing.T) {
	g := newGate(func(reqs []int) []Outcome[int] {
		for _, q := range reqs {
			if q < 0 {
				panic(fmt.Sprintf("poisoned request %d", q))
			}
		}
		return echoScore(reqs)
	})
	c := New(Options[int]{MaxBatch: 2}, g.score)
	defer c.Close()
	plug := holdLane(t, c, g)

	resA := doAsync(c, context.Background(), -1)
	resB := doAsync(c, context.Background(), 7)
	waitQueued(t, c, 2)
	g.release <- struct{}{}
	g.next(t) // the poisoned batch
	g.release <- struct{}{}
	await(t, plug)
	for name, res := range map[string]chan Outcome[int]{"poisoned": resA, "mate": resB} {
		out := await(t, res)
		if out.Err == nil || !strings.Contains(out.Err.Error(), "panic") {
			t.Fatalf("%s request got (%d, %v), want a panic error", name, out.Value, out.Err)
		}
	}

	g.release <- struct{}{}
	if v, err := c.Do(context.Background(), 5); err != nil || v != 10 {
		t.Fatalf("lane died after a score panic: (%d, %v)", v, err)
	}
}

// TestMisshapedScoreResult: a score function returning the wrong number
// of outcomes fails the batch with a descriptive error instead of
// panicking the lane or cross-wiring results.
func TestMisshapedScoreResult(t *testing.T) {
	c := New(Options[int]{MaxBatch: 1},
		func(reqs []int) []Outcome[int] { return nil })
	defer c.Close()
	_, err := c.Do(context.Background(), 1)
	if err == nil || !strings.Contains(err.Error(), "0 outcomes for 1 requests") {
		t.Fatalf("err %v, want mis-shape error", err)
	}
}

// TestCloseDrainsPendingBatch: close while a batch is scoring and a call
// is queued behind it — the queued call fails with ErrClosed and OnDrop
// at once, the batch in the lane finishes (graceful drain), Close returns
// only after it has, and later Do calls fail fast.
func TestCloseDrainsPendingBatch(t *testing.T) {
	g := newGate(echoScore)
	var dropped atomic.Uint64
	c := New(Options[int]{MaxBatch: 8, OnDrop: func(int) { dropped.Add(1) }}, g.score)
	plug := holdLane(t, c, g)
	queued := doAsync(c, context.Background(), 9)
	waitQueued(t, c, 1)

	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	if out := await(t, queued); !errors.Is(out.Err, ErrClosed) {
		t.Fatalf("queued request got (%d, %v) at close, want ErrClosed", out.Value, out.Err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while the lane was still scoring")
	default:
	}
	g.release <- struct{}{}
	if out := await(t, plug); out.Err != nil || out.Value != 0 {
		t.Fatalf("in-flight request got (%d, %v) at close, want graceful (0, nil)", out.Value, out.Err)
	}
	<-closed

	if _, err := c.Do(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close gave %v, want ErrClosed", err)
	}
	if st := c.Stats(); dropped.Load() != 2 || st.Dropped != 2 || st.Requests != 1 {
		t.Fatalf("OnDrop ran %d times, stats %+v; want the queued and the post-close request dropped, the plug scored", dropped.Load(), st)
	}
}

// TestDoCloseRaceAnswersEveryCall: Do racing Close must answer every
// submitted call exactly once — scored, or ErrClosed with OnDrop — and
// promptly: a call admitted as the lane exits used to sit in the queue
// with nobody left to take it, its caller blocked for good and its
// OnDrop (in serve, a registry lease) never run.
func TestDoCloseRaceAnswersEveryCall(t *testing.T) {
	const callers = 8
	for iter := 0; iter < 200; iter++ {
		var scored, dropped atomic.Int64
		c := New(Options[int]{MaxBatch: 4, OnDrop: func(int) { dropped.Add(1) }},
			func(reqs []int) []Outcome[int] {
				scored.Add(int64(len(reqs)))
				return echoScore(reqs)
			})
		var ok, refused atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				switch v, err := c.Do(context.Background(), g); {
				case err == nil && v == g*2:
					ok.Add(1)
				case errors.Is(err, ErrClosed):
					refused.Add(1)
				default:
					t.Errorf("iteration %d: Do(%d) = (%d, %v)", iter, g, v, err)
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if iter%2 == 1 {
				time.Sleep(time.Duration(iter) * time.Microsecond / 8) // let some calls in first
			}
			c.Close()
		}()
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: a Do or Close never returned", iter)
		}
		if ok.Load() != scored.Load() || refused.Load() != dropped.Load() || ok.Load()+refused.Load() != callers {
			t.Fatalf("iteration %d: %d ok / %d scored, %d refused / %d dropped, %d submitted",
				iter, ok.Load(), scored.Load(), refused.Load(), dropped.Load(), callers)
		}
	}
}

// TestSerialLane: MaxBatch 1 degenerates to one-at-a-time scoring — the
// single-mutex baseline mode the bench compares against.
func TestSerialLane(t *testing.T) {
	c := New(Options[int]{MaxBatch: 1}, echoScore)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(context.Background(), i)
			if err != nil || v != i*2 {
				t.Errorf("request %d got (%d, %v)", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Requests != 20 || st.MaxBatch != 1 {
		t.Fatalf("stats %+v, want 20 size-1 batches", st)
	}
}

// TestStressManyClients hammers a coalescer from many goroutines; under -race this is the suite's interleaving probe. Every
// response must belong to its own request — no cross-wiring, no losses.
func TestStressManyClients(t *testing.T) {
	score := func(reqs []int) []Outcome[int] {
		time.Sleep(50 * time.Microsecond) // make batches actually coalesce
		return echoScore(reqs)
	}
	c := New(Options[int]{MaxBatch: 8}, score)
	defer c.Close()

	clients, perClient := 16, 25
	if testing.Short() {
		clients, perClient = 4, 10
	}
	var wg sync.WaitGroup
	var failures atomic.Uint64
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				q := g*1000 + k
				v, err := c.Do(context.Background(), q)
				if err != nil || v != q*2 {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed or got a stranger's result", failures.Load(), clients*perClient)
	}
	st := c.Stats()
	if int(st.Requests) != clients*perClient {
		t.Fatalf("stats %+v, want %d requests", st, clients*perClient)
	}
	if st.MaxBatch < 2 {
		t.Logf("note: no coalescing observed under stress (max batch %d)", st.MaxBatch)
	}
}

// TestExpiredContextRejectedAtAdmission: a request whose context is
// already cancelled or past its deadline must never reach a batch — Do
// returns the ctx error immediately, OnDrop fires, and the scorer sees
// nothing.
func TestExpiredContextRejectedAtAdmission(t *testing.T) {
	var scored atomic.Uint64
	var dropped atomic.Uint64
	score := func(reqs []int) []Outcome[int] {
		scored.Add(uint64(len(reqs)))
		return echoScore(reqs)
	}
	c := New(Options[int]{MaxBatch: 8, OnDrop: func(int) { dropped.Add(1) }}, score)
	defer c.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := c.Do(expired, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v, want context.DeadlineExceeded", err)
	}

	if got := dropped.Load(); got != 2 {
		t.Fatalf("OnDrop fired %d times, want 2", got)
	}
	st := c.Stats()
	if st.Dropped != 2 || st.Requests != 0 || st.Batches != 0 {
		t.Fatalf("stats %+v, want 2 drops and zero scored batches", st)
	}

	// A live request through the same coalescer still works.
	if v, err := c.Do(context.Background(), 21); err != nil || v != 42 {
		t.Fatalf("live request got (%d, %v), want (42, nil)", v, err)
	}
	if scored.Load() != 1 {
		t.Fatalf("scorer saw %d requests, want exactly the live one", scored.Load())
	}
}
