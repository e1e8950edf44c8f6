package batch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchScore simulates a model call with a fixed per-call overhead plus a
// small per-row cost — the shape batching exploits: a batch of K pays the
// overhead once instead of K times.
func benchScore(reqs []int) []Outcome[int] {
	time.Sleep(20 * time.Microsecond) // per-call overhead
	return noopScore(reqs)
}

func noopScore(reqs []int) []Outcome[int] {
	outs := make([]Outcome[int], len(reqs))
	for i, q := range reqs {
		outs[i] = Outcome[int]{Value: q + 1}
	}
	return outs
}

// benchCoalescer splits b.N calls over callers closed-loop goroutines and
// reports the batch size the lane reached by itself.
func benchCoalescer(b *testing.B, callers, maxBatch int, score ScoreFunc[int, int]) {
	c := New(Options[int]{MaxBatch: maxBatch}, score)
	defer c.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if _, err := c.Do(context.Background(), int(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(c.Stats().AvgBatch, "avg_batch")
}

// BenchmarkCoalescerLone is one caller on an idle lane behind a scorer
// that does nothing: its ns/op is the whole cost of going through the
// coalescer alone (bench's batch.lone_wait_us and batch.handoff_us).
func BenchmarkCoalescerLone(b *testing.B) { benchCoalescer(b, 1, 32, noopScore) }

// The load shape PR 6's claim rests on: at 32 callers the coalescing lane
// beats the serial one (MaxBatch 1), because batches form behind a busy
// lane; at 1 and 2 callers there is nothing to batch and the two agree.
func BenchmarkCoalescerSerialLane(b *testing.B) { benchByCallers(b, 1) }
func BenchmarkCoalescerBatch32(b *testing.B)    { benchByCallers(b, 32) }

func benchByCallers(b *testing.B, maxBatch int) {
	for _, callers := range []int{1, 2, 32} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			benchCoalescer(b, callers, maxBatch, benchScore)
		})
	}
}
