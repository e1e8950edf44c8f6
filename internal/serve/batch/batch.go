// Package batch implements the request-coalescing front of the serving
// tier: concurrent callers queue their requests on a Coalescer, whose one
// lane goroutine pulls — sleep until a call is queued, take whatever is
// queued at that moment up to MaxBatch, score the lot through one model
// call, fan the results back out, repeat. A lone request on an idle lane
// is scored at once; while the lane is busy arrivals pile up in the
// admission queue and become the next batch by themselves, so batches
// grow exactly when load makes batching pay. The structure follows the
// per-GPU command-queue + dispatcher idiom — one admission front feeding
// one serialized execution lane, the queue draining at the lane's pace —
// so models whose inference path reuses scratch buffers (the nn forwards)
// stay correct without a global lock, while the batched entry points
// (PredictProbaBatch / PredictValueBatch) amortize per-call overhead
// across every waiter in the batch.
//
// Nothing in the package waits on time, so tests shape batches by holding
// a score function shut and watching Stats.Queued. The queue itself is
// unbounded: the caller bounds what it submits (serve's in-flight cap).
package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Do once the coalescer has been closed.
var ErrClosed = errors.New("batch: coalescer closed")

// Outcome is one request's result: a value or an error, never both.
type Outcome[R any] struct {
	Value R
	Err   error
}

// ScoreFunc scores one batch. It must return exactly one outcome per
// request, index-aligned. Once called, the score function owns the
// requests — OnDrop is not invoked for them, so any per-request resources
// (e.g. registry handles) must be released by the score function itself,
// even on panic. A panicking score function fails its whole batch with an
// error but does not kill the coalescer.
type ScoreFunc[Q, R any] func(reqs []Q) []Outcome[R]

// Options tunes a Coalescer.
type Options[Q any] struct {
	// Window is ignored: the lane never waits for batchmates. The field
	// stays only so bench/layers_serve.go, which a PR claiming a gain may
	// not edit, keeps compiling; ROADMAP item 2 lists its removal.
	Window time.Duration
	// MaxBatch caps a batch. Values < 1 mean 1 (no coalescing; requests
	// score one at a time through the same serialized lane).
	MaxBatch int
	// OnDrop is called for every request the coalescer fails without
	// scoring (rejected at admission, or still queued at Close). Callers
	// use it to release per-request resources. May be nil.
	OnDrop func(req Q)
}

// Stats is a point-in-time snapshot of coalescing behavior.
type Stats struct {
	// Batches and Requests count scored batches and the requests in them.
	Batches  uint64 `json:"batches"`
	Requests uint64 `json:"requests"`
	// SizeFlushes counts the batches that filled to MaxBatch;
	// WindowFlushes counts every batch that took less — what was queued
	// when the lane went idle. (No window exists; the name is the one
	// bench/layers_serve.go reads, kept until ROADMAP item 2's benchmark
	// follow-up renames it.)
	SizeFlushes   uint64 `json:"size_flushes"`
	WindowFlushes uint64 `json:"window_flushes"`
	// Dropped counts requests failed without scoring.
	Dropped uint64 `json:"dropped"`
	// Queued is the lane's backlog right now: requests submitted and not
	// yet taken into a batch or dropped.
	Queued int `json:"queued"`
	// MaxBatch is the largest batch scored so far.
	MaxBatch int `json:"max_batch"`
	// AvgBatch is Requests / Batches.
	AvgBatch float64 `json:"avg_batch"`
}

type call[Q, R any] struct {
	req  Q
	done chan Outcome[R] // buffered(1): neither the lane nor Close blocks on an abandoned waiter
}

// Coalescer is the admission queue plus the one serialized scoring lane
// that drains it.
type Coalescer[Q, R any] struct {
	opts  Options[Q]
	score ScoreFunc[Q, R]

	// mu orders every Do against Close: a call is either queued before
	// Close empties the queue or sees closed, so each is answered exactly
	// once. work wakes the lane when a call is queued or closed is set.
	mu     sync.Mutex
	work   sync.Cond
	queue  []*call[Q, R]
	closed bool
	exited chan struct{} // closed by the lane on its way out

	// Written by the lane alone, except dropped.
	batches, requests atomic.Uint64
	sizeFl, partialFl atomic.Uint64
	dropped           atomic.Uint64
	maxBatch          atomic.Int64
}

// New starts a coalescer: one lane goroutine that forms batches from
// what is queued and runs them through score, one at a time. Close it
// when done.
func New[Q, R any](opts Options[Q], score ScoreFunc[Q, R]) *Coalescer[Q, R] {
	if opts.MaxBatch < 1 {
		opts.MaxBatch = 1
	}
	c := &Coalescer[Q, R]{opts: opts, score: score, exited: make(chan struct{})}
	c.work.L = &c.mu
	go c.lane()
	return c
}

// Do submits one request and blocks until its batch is scored, ctx is
// done, or the coalescer closes. A ctx cancellation after submission
// abandons the wait but not the work: the batch still scores (the result
// is discarded), so batchmates are unaffected.
func (c *Coalescer[Q, R]) Do(ctx context.Context, req Q) (R, error) {
	var zero R
	// Admission check: a request whose context is already cancelled or past
	// its deadline must not consume a batch slot and score work nobody
	// will read.
	if err := ctx.Err(); err != nil {
		c.drop(req)
		return zero, err
	}
	cl := &call[Q, R]{req: req, done: make(chan Outcome[R], 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.drop(req)
		return zero, ErrClosed
	}
	c.queue = append(c.queue, cl)
	c.mu.Unlock()
	c.work.Signal()
	select {
	case out := <-cl.done:
		return out.Value, out.Err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// Close stops admission, fails everything still queued with ErrClosed
// (and OnDrop), lets the batch being scored finish, and waits for the
// lane goroutine to exit. Safe to call more than once.
func (c *Coalescer[Q, R]) Close() {
	c.mu.Lock()
	c.closed = true
	pending := c.queue
	c.queue = nil
	c.mu.Unlock()
	c.work.Signal()
	for _, cl := range pending {
		c.drop(cl.req)
		cl.done <- Outcome[R]{Err: ErrClosed}
	}
	<-c.exited
}

// Stats snapshots the coalescing counters.
func (c *Coalescer[Q, R]) Stats() Stats {
	c.mu.Lock()
	queued := len(c.queue)
	c.mu.Unlock()
	s := Stats{
		Batches:       c.batches.Load(),
		Requests:      c.requests.Load(),
		SizeFlushes:   c.sizeFl.Load(),
		WindowFlushes: c.partialFl.Load(),
		Dropped:       c.dropped.Load(),
		Queued:        queued,
		MaxBatch:      int(c.maxBatch.Load()),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(s.Requests) / float64(s.Batches)
	}
	return s
}

// lane is the execution lane: sleep until something is queued, take what
// is queued now up to MaxBatch, score it, fan the results back to the
// waiters, repeat. It never waits for a batch to grow — an idle lane's
// expected wait is zero — and a busy one finds the next batch already
// queued behind it.
func (c *Coalescer[Q, R]) lane() {
	defer close(c.exited)
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.work.Wait()
		}
		if c.closed { // Close emptied the queue
			c.mu.Unlock()
			return
		}
		n := min(len(c.queue), c.opts.MaxBatch)
		batch := append([]*call[Q, R](nil), c.queue[:n]...)
		rest := copy(c.queue, c.queue[n:])
		// A finished call must not pin its request (in serve, a model
		// lease) from the queue's spare capacity.
		clear(c.queue[rest:])
		c.queue = c.queue[:rest]
		c.mu.Unlock()

		c.batches.Add(1)
		c.requests.Add(uint64(n))
		if n == c.opts.MaxBatch {
			c.sizeFl.Add(1)
		} else {
			c.partialFl.Add(1)
		}
		c.maxBatch.Store(max(c.maxBatch.Load(), int64(n)))
		outs := c.safeScore(batch)
		for i, cl := range batch {
			cl.done <- outs[i]
		}
	}
}

// safeScore invokes the score function, converting a panic or a
// mis-shaped result into per-request errors so one bad batch cannot kill
// the lane.
func (c *Coalescer[Q, R]) safeScore(batch []*call[Q, R]) (outs []Outcome[R]) {
	reqs := make([]Q, len(batch))
	for i, cl := range batch {
		reqs[i] = cl.req
	}
	defer func() {
		if v := recover(); v != nil {
			err := fmt.Errorf("batch: score panicked: %v", v)
			outs = errOutcomes[R](len(batch), err)
		}
	}()
	outs = c.score(reqs)
	if len(outs) != len(batch) {
		err := fmt.Errorf("batch: score returned %d outcomes for %d requests", len(outs), len(batch))
		outs = errOutcomes[R](len(batch), err)
	}
	return outs
}

func errOutcomes[R any](n int, err error) []Outcome[R] {
	outs := make([]Outcome[R], n)
	for i := range outs {
		outs[i].Err = err
	}
	return outs
}

// drop fails one request that never reached a batch.
func (c *Coalescer[Q, R]) drop(req Q) {
	c.dropped.Add(1)
	if c.opts.OnDrop != nil {
		c.opts.OnDrop(req)
	}
}
