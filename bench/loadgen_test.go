package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// The open loop against a server that stalls once: the schedule does not
// wait for it, so the stall is charged to the requests queued behind it,
// timed from when each was due, and shows up as generator lateness.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const (
		rate    = 1000.0 // one request a millisecond
		n       = 100
		stallAt = 10
		stall   = 40 * time.Millisecond
	)
	shots, _ := openLoop(1, rate, n, func(_, i int) bool {
		if i == stallAt {
			time.Sleep(stall)
		}
		return true
	})
	if len(shots) != n {
		t.Fatalf("%d shots, want %d", len(shots), n)
	}
	for i, s := range shots {
		if s.index != i || s.due != time.Duration(i)*time.Millisecond {
			t.Fatalf("shot %d: index %d due %v", i, s.index, s.due)
		}
		if s.start < s.due {
			t.Fatalf("shot %d was sent %v before it was due", i, s.due-s.start)
		}
	}
	if got := shots[stallAt].latency(); got < stall {
		t.Errorf("the stalled request's latency is %v, want at least the %v stall", got, stall)
	}
	// The next request was due 1 ms after the stall began; with the only
	// sender stuck it goes out ~39 ms late, and its latency says so even
	// though the server answered it at once.
	next := shots[stallAt+1]
	if next.late() < stall/2 || next.latency() < stall/2 {
		t.Errorf("request behind the stall: late %v, latency %v; want both near %v", next.late(), next.latency(), stall)
	}
	if service := next.end - next.start; service > stall/4 {
		t.Errorf("request behind the stall took %v to serve; the stub answers at once", service)
	}
	// The backlog drains (the stub is instant), so the tail of the run is
	// back on schedule.
	if last := shots[n-1]; last.late() > stall/2 {
		t.Errorf("last request still %v late: the schedule never recovered", last.late())
	}
	// Before the stall nothing was late by anything like it.
	for _, s := range shots[:stallAt] {
		if s.late() > stall/2 {
			t.Errorf("request %d before the stall was %v late", s.index, s.late())
		}
	}
}

func TestClosedLoopStopsWhenTheStreamRunsDry(t *testing.T) {
	var cursor atomic.Int64
	const have = 50
	shots, _, dry := closedLoop(2, 5*time.Second,
		func() (int, bool) {
			i := int(cursor.Add(1) - 1)
			return i, i < have
		},
		func(_, i int) bool { return i%2 == 0 })
	if !dry {
		t.Fatal("the loop did not report the stream running dry")
	}
	if len(shots) != have {
		t.Fatalf("%d shots, want %d", len(shots), have)
	}
	seen := map[int]bool{}
	for _, s := range shots {
		if seen[s.index] {
			t.Fatalf("stream position %d sent twice", s.index)
		}
		seen[s.index] = true
		if s.ok != (s.index%2 == 0) || s.due != s.start || s.end < s.start {
			t.Fatalf("shot %+v", s)
		}
	}
}
