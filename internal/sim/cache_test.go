package sim

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

func cacheArch(t *testing.T) gpu.Arch {
	t.Helper()
	a, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

type ocSample struct {
	oc opt.Opt
	p  opt.Params
}

// distinctSamples draws perOC settings of every OC and drops repeats, so
// tests can predict the memo counters exactly.
func distinctSamples(dims, perOC int, seed int64) []ocSample {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[ocSample]bool)
	var out []ocSample
	for _, oc := range opt.Combinations() {
		for k := 0; k < perOC; k++ {
			sm := ocSample{oc, opt.Sample(oc, dims, rng)}
			if !seen[sm] {
				seen[sm] = true
				out = append(out, sm)
			}
		}
	}
	return out
}

// mustEvaluator looks the cell up once.
func mustEvaluator(t testing.TB, m *Model, w Workload, arch gpu.Arch) *CellEvaluator {
	t.Helper()
	ev, err := m.Evaluator(w, arch)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// fillTable registers fresh cells (the workload at time steps from+1 …
// from+n, each looked up once) — the way tests push the evaluator table
// to a reset.
func fillTable(t testing.TB, m *Model, w Workload, arch gpu.Arch, from, n int) {
	t.Helper()
	for k := 1; k <= n; k++ {
		w.TimeSteps = from + k
		mustEvaluator(t, m, w, arch)
	}
}

// TestCacheHitReturnsIdenticalResult walks one cell through its three
// states — first lookup (no memo, no counters), second lookup (every
// sample a miss that fills the memo), then every sample a hit — and
// requires the same outcome from each.
func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	m := New()
	arch := cacheArch(t)
	s := stencil.Star(2, 2)
	w := DefaultWorkload(s)
	samples := distinctSamples(s.Dims, 3, 7)
	n := uint64(len(samples))

	type outcome struct {
		r   Result
		err error
	}
	pass := func(ev *CellEvaluator) []outcome {
		out := make([]outcome, len(samples))
		for i, sm := range samples {
			out[i].r, out[i].err = ev.Eval(sm.oc, sm.p)
		}
		return out
	}
	first := pass(mustEvaluator(t, m, w, arch))
	if st := m.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("first lookup of a cell touched the memo: %+v", st)
	}
	ev := mustEvaluator(t, m, w, arch)
	filling := pass(ev)
	if st := m.CacheStats(); st != (CacheStats{Misses: n, Entries: int(n)}) {
		t.Fatalf("filling pass: stats %+v, want %d misses and entries", st, n)
	}
	hitting := pass(ev)
	if st := m.CacheStats(); st != (CacheStats{Hits: n, Misses: n, Entries: int(n)}) {
		t.Fatalf("hitting pass: stats %+v, want %d hits", st, n)
	}
	for i, sm := range samples {
		for _, got := range []outcome{filling[i], hitting[i]} {
			if (got.err == nil) != (first[i].err == nil) {
				t.Fatalf("%s: memo error disagreement: %v vs %v", sm.oc, got.err, first[i].err)
			}
			if got.err != nil && got.err.Error() != first[i].err.Error() {
				t.Fatalf("%s: memo error %q != %q", sm.oc, got.err, first[i].err)
			}
			if got.r != first[i].r {
				t.Fatalf("%s: memo result differs: %+v vs %+v", sm.oc, got.r, first[i].r)
			}
		}
	}
}

// TestCacheMatchesUncachedModel compares a memoizing cell with the same
// cell on a model that only ever looks it up once, which is the
// memo-free path.
func TestCacheMatchesUncachedModel(t *testing.T) {
	cached := New()
	plain := New()
	arch := cacheArch(t)
	s := stencil.Box(3, 2)
	w := DefaultWorkload(s)
	evPlain := mustEvaluator(t, plain, w, arch)
	rng := rand.New(rand.NewSource(11))
	for _, oc := range opt.Combinations() {
		for k := 0; k < 4; k++ {
			p := opt.Sample(oc, s.Dims, rng)
			rc, errC := cached.CellFn(w, arch)(oc, p)
			ru, errU := evPlain.Eval(oc, p)
			if (errC == nil) != (errU == nil) {
				t.Fatalf("%s %+v: error disagreement: %v vs %v", oc, p, errC, errU)
			}
			if errC == nil && rc != ru {
				t.Fatalf("%s %+v: cached %+v != uncached %+v", oc, p, rc, ru)
			}
		}
	}
	if st := cached.CacheStats(); st.Misses == 0 {
		t.Fatalf("the revisited cell never consulted its memo: %+v", st)
	}
	if st := plain.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("a cell looked up once reported stats %+v", st)
	}
}

func TestCacheMemoizesCrashes(t *testing.T) {
	m := New()
	arch := cacheArch(t)
	// TB without ST on a high-order 3-D stencil is the documented crash
	// condition; search until one errors, then confirm the memo replays it.
	s := stencil.Box(3, 4)
	w := DefaultWorkload(s)
	mustEvaluator(t, m, w, arch)
	ev := mustEvaluator(t, m, w, arch)
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 64; k++ {
		p := opt.Sample(opt.TB, s.Dims, rng)
		_, err := ev.Eval(opt.TB, p)
		if err == nil {
			continue
		}
		hits := m.CacheStats().Hits
		_, err2 := ev.Eval(opt.TB, p)
		if m.CacheStats().Hits != hits+1 {
			t.Fatalf("crash replay was not a memo hit: %+v", m.CacheStats())
		}
		if err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("cached crash replay: %v vs %v", err2, err)
		}
		if !errors.Is(err2, ErrCrash) && !errors.Is(err2, ErrInvalidConfig) {
			t.Fatalf("cached crash lost its sentinel: %v", err2)
		}
		return
	}
	t.Skip("no crashing setting found in 64 samples")
}

// TestCacheSizeBound: memoized samples across all cells stay within
// maxMemoSamples plus what one lookup evaluates; the lookup that finds
// the table full resets it.
func TestCacheSizeBound(t *testing.T) {
	m := New()
	arch := cacheArch(t)
	s := stencil.Star(2, 1)
	w := DefaultWorkload(s)
	samples := distinctSamples(s.Dims, 8, 5)
	var memoized, peak int
	for k := 1; ; k++ {
		if k > 2*maxMemoSamples/len(samples) {
			t.Fatalf("no reset after %d memoized samples, bound %d", memoized, maxMemoSamples)
		}
		w.TimeSteps = k // a new cell each round
		mustEvaluator(t, m, w, arch)
		ev := mustEvaluator(t, m, w, arch)
		st := m.CacheStats()
		if st.Evictions > 0 {
			if st.Evictions != uint64(memoized) || st.Entries != 0 {
				t.Fatalf("reset dropped %d samples: stats %+v", memoized, st)
			}
			break
		}
		for _, sm := range samples {
			ev.Eval(sm.oc, sm.p)
		}
		memoized += len(samples)
		peak = max(peak, m.CacheStats().Entries)
	}
	if peak < maxMemoSamples || peak >= maxMemoSamples+len(samples) {
		t.Fatalf("memo peaked at %d samples, bound %d + one lookup's %d", peak, maxMemoSamples, len(samples))
	}
}

// TestCacheResetDropsEntries pins what a reset of the evaluator table
// does to the counters: the memoized samples of the dropped cells leave
// Entries and are counted as Evictions, a dropped cell starts over at its
// first lookup, and an evaluator still held from before the reset keeps
// answering from its own memo without showing in Entries.
func TestCacheResetDropsEntries(t *testing.T) {
	m := New()
	arch := cacheArch(t)
	s := stencil.Star(2, 1)
	w := DefaultWorkload(s)
	samples := distinctSamples(s.Dims, 2, 5)
	n := len(samples)

	mustEvaluator(t, m, w, arch)
	held := mustEvaluator(t, m, w, arch)
	for _, sm := range samples[:n/2] {
		held.Eval(sm.oc, sm.p)
	}
	if st := m.CacheStats(); st.Entries != n/2 || st.Evictions != 0 {
		t.Fatalf("before the reset: %+v, want %d entries", st, n/2)
	}

	fillTable(t, m, w, arch, w.TimeSteps, maxEvaluators) // the last one overflows
	want := CacheStats{Misses: uint64(n / 2), Evictions: uint64(n / 2)}
	if st := m.CacheStats(); st != want {
		t.Fatalf("after the reset: %+v, want %+v", st, want)
	}

	// The old evaluator is unreachable from the table: it still hits and
	// still fills, but nothing it holds is an entry.
	for _, sm := range samples {
		held.Eval(sm.oc, sm.p)
	}
	want.Hits, want.Misses = uint64(n/2), uint64(n)
	if st := m.CacheStats(); st != want {
		t.Fatalf("held evaluator after the reset: %+v, want %+v", st, want)
	}

	// The cell itself is back at its first lookup.
	fresh := mustEvaluator(t, m, w, arch)
	if fresh == held {
		t.Fatal("reset kept the cell's evaluator")
	}
	for _, sm := range samples {
		fresh.Eval(sm.oc, sm.p)
	}
	if st := m.CacheStats(); st != want {
		t.Fatalf("first lookup after the reset touched the memo: %+v, want %+v", st, want)
	}
}

// TestCacheConcurrentAcrossReset hammers one revisited cell from four
// goroutines while a fifth forces evaluator-table resets under them; run
// under -race by check.sh. Every outcome must equal the oracle's.
func TestCacheConcurrentAcrossReset(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := New()
	ref := NewReference()
	arch := cacheArch(t)
	s := stencil.Star(3, 2)
	w := DefaultWorkload(s)
	samples := distinctSamples(s.Dims, 2, 9)
	want := make([]Result, len(samples))
	wantErr := make([]error, len(samples))
	for i, sm := range samples {
		want[i], wantErr[i] = ref.CellFn(w, arch)(sm.oc, sm.p)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ev, err := m.Evaluator(w, arch)
				if err != nil {
					t.Error(err)
					return
				}
				for i, sm := range samples {
					got, gotErr := ev.Eval(sm.oc, sm.p)
					if got != want[i] || (gotErr == nil) != (wantErr[i] == nil) {
						t.Errorf("%s %+v: got %+v, %v; oracle %+v, %v", sm.oc, sm.p, got, gotErr, want[i], wantErr[i])
						return
					}
				}
			}
		}()
	}
	other := DefaultWorkload(stencil.Star(2, 1))
	for round := 0; round < 2; round++ {
		fillTable(t, m, other, arch, round*maxEvaluators, maxEvaluators)
	}
	close(stop)
	wg.Wait()
	st := m.CacheStats()
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("the hammered cell never hit or no reset dropped anything: %+v", st)
	}
	if st.Entries > len(samples) {
		t.Fatalf("%d entries reachable, the one memoizing cell has %d samples", st.Entries, len(samples))
	}
}
