package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// shot is one request as the generator saw it. Times are since the loop
// began. In a closed loop due equals start; in an open loop due is the
// schedule and start can only be later.
type shot struct {
	index int
	due   time.Duration
	start time.Duration
	end   time.Duration
	ok    bool
}

// latency is what the caller waited, counted from when the request was
// due: a stall charges every request scheduled behind it, not just the
// one that hit it.
func (s shot) latency() time.Duration { return s.end - s.due }

// late is how far behind schedule the generator sent the request.
func (s shot) late() time.Duration { return s.start - s.due }

// closedLoop runs clients callers for d: each sends its next request only
// when the previous answer is back. next hands out stream positions and
// reports false once the stream is used up, which ends the loop early
// (dry is then true). The returned duration is start to last answer.
func closedLoop(clients int, d time.Duration, next func() (int, bool), do func(client, index int) bool) (shots []shot, elapsed time.Duration, dry bool) {
	perClient := make([][]shot, clients)
	var ranDry atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(t0) < d {
				i, ok := next()
				if !ok {
					ranDry.Store(true)
					return
				}
				start := time.Since(t0)
				good := do(c, i)
				perClient[c] = append(perClient[c], shot{index: i, due: start, start: start, end: time.Since(t0), ok: good})
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(t0)
	for _, s := range perClient {
		shots = append(shots, s...)
	}
	return shots, elapsed, ranDry.Load()
}

// openLoop sends n requests on a fixed schedule, request i due at i/rate,
// whatever the answers do: independent users do not wait for each other.
// At most senders requests are in flight (the harness never uses more
// connections than cores); when all are busy the next request goes out
// late, and that lateness is in its latency and reported on its own.
func openLoop(senders int, rate float64, n int, do func(sender, index int) bool) (shots []shot, elapsed time.Duration) {
	period := time.Duration(float64(time.Second) / rate)
	shots = make([]shot, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * period
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(t0)
				good := do(s, i)
				shots[i] = shot{index: i, due: due, start: start, end: time.Since(t0), ok: good}
			}
		}(s)
	}
	wg.Wait()
	return shots, time.Since(t0)
}
