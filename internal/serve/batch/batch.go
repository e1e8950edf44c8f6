// Package batch implements the serving tier's request-coalescing lane,
// for models whose inference reuses scratch buffers (the nn forwards) and
// so must score one call at a time. Concurrent callers queue requests on
// a Coalescer, whose one lane goroutine takes whatever is queued (up to
// MaxBatch) whenever it goes idle, scores the lot through one model call
// and fans the results back out: a lone request scores at once, and
// batches grow exactly when load keeps the lane busy. Tree models score
// on their callers' goroutines and never reach it (internal/serve).
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

// ScoreFunc scores one batch, returning one outcome per request,
// index-aligned. It owns the requests it is called with (OnDrop is not
// invoked for them), so it releases their resources itself, even on
// panic. A panic fails its batch, not the coalescer.
type ScoreFunc[Q, R any] func(reqs []Q) []Outcome[R]

// Options tunes a Coalescer.
type Options[Q any] struct {
	// Window is ignored: the lane never waits for batchmates. It stays
	// only for bench/layers_serve.go, ROADMAP item 22.
	Window time.Duration
	// MaxBatch caps a batch. Values < 1 mean 1 (no coalescing; requests
	// score one at a time through the same serialized lane).
	MaxBatch int
	// OnDrop, if set, is called for every request failed unscored
	// (rejected at admission, or still queued at Close).
	OnDrop func(req Q)
}

// Stats is a point-in-time snapshot of coalescing behavior.
type Stats struct {
	// Batches and Requests count scored batches and the requests in them.
	Batches  uint64 `json:"batches"`
	Requests uint64 `json:"requests"`
	// SizeFlushes counts the batches that filled to MaxBatch;
	// WindowFlushes every batch that took less (no window exists; the
	// name is bench/layers_serve.go's, ROADMAP item 22).
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

// Coalescer is an admission queue and the one lane that drains it.
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

// New starts a coalescer's lane goroutine. Close it when done.
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
// done, or the coalescer closes. A request whose ctx is already done is
// refused; one cancelled after submission abandons the wait, not the
// work, so batchmates are unaffected.
func (c *Coalescer[Q, R]) Do(ctx context.Context, req Q) (R, error) {
	var zero R
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

// lane sleeps until something is queued, takes what is queued now up
// to MaxBatch, scores it, fans the results back to the waiters, and
// repeats. It never waits for a batch to grow.
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
// mis-shaped result into per-request errors.
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
