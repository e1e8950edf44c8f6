package sim_test

import (
	"context"
	"path/filepath"
	"testing"

	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/testutil"
)

// The rewrite differential: the compiled-evaluator substrate must be
// invisible at dataset granularity. A collection measured on
// sim.NewReference() — per-call validation, nothing precomputed, nothing
// memoized, noise from scratch — is the oracle; collections on the
// default compiled Model must reproduce its bytes exactly, serial and
// parallel, journaled and not, and whether the model meets the cells for
// the first time or answers from their memos.

// referenceCollect collects the suite corpus on the pre-rewrite path.
func referenceCollect(t testing.TB, workers int) []byte {
	t.Helper()
	p := &profile.Profiler{
		Model:        sim.NewReference(),
		SamplesPerOC: 4,
		Seed:         testutil.CorpusSeed + 1,
		Workers:      workers,
	}
	d, err := p.Collect(context.Background(), testutil.SmallCorpus(t), testutil.AllArchs(t))
	if err != nil {
		t.Fatalf("reference Collect (workers=%d): %v", workers, err)
	}
	return testutil.DatasetBytes(t, d)
}

// compiledCollect collects the same corpus on the compiled Model path.
func compiledCollect(t testing.TB, m *sim.Model, workers int) []byte {
	t.Helper()
	p := &profile.Profiler{Model: m, SamplesPerOC: 4, Seed: testutil.CorpusSeed + 1, Workers: workers}
	d, err := p.Collect(context.Background(), testutil.SmallCorpus(t), testutil.AllArchs(t))
	if err != nil {
		t.Fatalf("compiled Collect (workers=%d): %v", workers, err)
	}
	return testutil.DatasetBytes(t, d)
}

// TestCollectMatchesReference: compiled vs pre-rewrite dataset bytes, at
// GOMAXPROCS 1 and 4, serial and parallel pools.
func TestCollectMatchesReference(t *testing.T) {
	oracle := referenceCollect(t, 1)
	for _, procs := range []int{1, 4} {
		testutil.WithGOMAXPROCS(t, procs, func() {
			testutil.AssertSameBytes(t, "compiled serial vs reference", oracle, compiledCollect(t, sim.New(), 1))
			// One model, three passes: every cell at its first lookup (the
			// memo untouched), then filling its memo, then all hits.
			m := sim.New()
			testutil.AssertSameBytes(t, "compiled parallel vs reference", oracle, compiledCollect(t, m, 0))
			if st := m.CacheStats(); st != (sim.CacheStats{}) {
				t.Fatalf("a first collection pass touched the memo: %+v", st)
			}
			testutil.AssertSameBytes(t, "memo filling vs reference", oracle, compiledCollect(t, m, 0))
			filled := m.CacheStats()
			testutil.AssertSameBytes(t, "memo hitting vs reference", oracle, compiledCollect(t, m, 0))
			if st := m.CacheStats(); st.Misses != filled.Misses || st.Hits == filled.Hits {
				t.Fatalf("third identical collection pass was not all hits: %+v -> %+v", filled, st)
			}
		})
	}
	// And the reference path itself is scheduling-invariant, so the oracle
	// is well-defined.
	testutil.AssertSameBytes(t, "reference parallel vs serial", oracle, referenceCollect(t, 4))
}

// TestCollectJournalMatchesReference: the journaled (WAL) collection on
// the compiled substrate reproduces the reference bytes too.
func TestCollectJournalMatchesReference(t *testing.T) {
	oracle := referenceCollect(t, 1)
	p := profile.NewProfiler(4, testutil.CorpusSeed+1)
	path := filepath.Join(t.TempDir(), "collect.journal")
	d, _, err := p.CollectJournal(context.Background(), path, testutil.SmallCorpus(t), testutil.AllArchs(t))
	if err != nil {
		t.Fatalf("CollectJournal: %v", err)
	}
	testutil.AssertSameBytes(t, "journaled compiled vs reference", oracle, testutil.DatasetBytes(t, d))
}

// BenchmarkProfileCellReference is the same cell on the pre-rewrite
// substrate (string-keyed cache, per-call validation) for comparison.
func BenchmarkProfileCellReference(b *testing.B) {
	corpus := testutil.SmallCorpus(b)
	archs := testutil.AllArchs(b)
	p := &profile.Profiler{Model: sim.NewReference(), SamplesPerOC: 12, Seed: testutil.CorpusSeed + 1}
	s, arch := corpus[0], archs[0]
	if _, _, err := p.ProfileOne(context.Background(), 0, s, arch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.ProfileOne(context.Background(), 0, s, arch); err != nil {
			b.Fatal(err)
		}
	}
}
