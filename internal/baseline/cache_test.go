package baseline

import (
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/sim"
	"stencilmart/internal/testutil"
)

// tuneCorpus runs both baseline strategies over the suite corpus on one
// model — the equal-budget comparison of the evaluation figures, which
// re-prices many identical (stencil, OC, params, arch) cells.
func tuneCorpus(t testing.TB, m *sim.Model, arch gpu.Arch) {
	t.Helper()
	for si, s := range testutil.SmallCorpus(t) {
		w := sim.DefaultWorkload(s)
		for _, strat := range []Strategy{AN5D{}, Artemis{}} {
			if _, err := strat.Tune(m, w, arch, 12, int64(si)); err != nil {
				t.Logf("%s on %s: %v", strat.Name(), s.Name, err)
			}
		}
	}
}

// TestBaselineTuningHitsCache asserts the sample memo absorbs repeated
// work in the equal-budget baseline comparison. The first pass meets each
// cell for the first time (its opening search is priced memo-free, the
// strategies' later searches find the cell again and start filling its
// memo), the second pass fills in what the first priced memo-free, and an
// identical third pass is answered from the memo entirely.
func TestBaselineTuningHitsCache(t *testing.T) {
	m := sim.New()
	arch, err := gpu.ByName("P100")
	if err != nil {
		t.Fatal(err)
	}
	tuneCorpus(t, m, arch)
	tuneCorpus(t, m, arch)
	filled := m.CacheStats()
	tuneCorpus(t, m, arch)
	st := m.CacheStats()
	if st.Misses != filled.Misses || st.Entries != filled.Entries {
		t.Fatalf("third identical tuning pass still missed: %+v -> %+v", filled, st)
	}
	if st.Hits == filled.Hits {
		t.Fatalf("no memo hits on the third identical tuning pass: %+v", st)
	}
}

// BenchmarkBaselineTuneCached measures the equal-budget comparison with
// every cell's memo full, reporting the achieved hit rate.
func BenchmarkBaselineTuneCached(b *testing.B) {
	m := sim.New()
	arch, err := gpu.ByName("P100")
	if err != nil {
		b.Fatal(err)
	}
	tuneCorpus(b, m, arch) // first lookups
	tuneCorpus(b, m, arch) // fill
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuneCorpus(b, m, arch)
	}
	b.StopTimer()
	b.ReportMetric(m.CacheStats().HitRate(), "hit-rate")
}
