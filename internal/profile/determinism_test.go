package profile_test

import (
	"context"
	"runtime"
	"testing"

	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/testutil"
)

// collect profiles the suite corpus on every catalog arch with the given
// worker bound and a fresh model, returning the canonical dataset bytes.
func collect(t testing.TB, corpus []stencil.Stencil, archs []gpu.Arch, workers int) []byte {
	t.Helper()
	p := profile.NewProfiler(4, testutil.CorpusSeed+1)
	p.Workers = workers
	d, err := p.Collect(context.Background(), corpus, archs)
	if err != nil {
		t.Fatalf("collect (workers=%d): %v", workers, err)
	}
	return testutil.DatasetBytes(t, d)
}

// TestCollectWorkerCountInvariance is the differential check of the
// ISSUE: the parallel Collect must be byte-identical to the serial
// reference (Workers == 1) for any pool size.
func TestCollectWorkerCountInvariance(t *testing.T) {
	corpus := testutil.SmallCorpus(t)
	archs := testutil.AllArchs(t)
	serial := collect(t, corpus, archs, 1)
	for _, w := range []int{2, 3, runtime.NumCPU(), 2 * runtime.NumCPU()} {
		if w < 2 {
			continue
		}
		testutil.AssertSameBytes(t, "Collect", serial, collect(t, corpus, archs, w))
	}
}

// TestCollectGOMAXPROCSInvariance pins the whole runtime to one proc and
// compares against the machine's default — the scheduler itself must not
// be able to change the dataset.
func TestCollectGOMAXPROCSInvariance(t *testing.T) {
	corpus := testutil.SmallCorpus(t)
	archs := testutil.AllArchs(t)
	var one, many []byte
	testutil.WithGOMAXPROCS(t, 1, func() {
		one = collect(t, corpus, archs, 0)
	})
	testutil.WithGOMAXPROCS(t, runtime.NumCPU(), func() {
		many = collect(t, corpus, archs, 0)
	})
	testutil.AssertSameBytes(t, "Collect under GOMAXPROCS", one, many)
}

// TestCollectMatchesProfileOneLoop checks Collect against the primitive
// it is built from: a hand-rolled serial ProfileOne loop in cell order.
func TestCollectMatchesProfileOneLoop(t *testing.T) {
	corpus := testutil.SmallCorpus(t)
	archs := testutil.AllArchs(t)

	ref := &profile.Dataset{Stencils: corpus, Archs: archs}
	ref.Profiles = make([][]profile.Profile, len(archs))
	p := profile.NewProfiler(4, testutil.CorpusSeed+1)
	for ai, a := range archs {
		ref.Profiles[ai] = make([]profile.Profile, len(corpus))
		for si, s := range corpus {
			prof, inst, err := p.ProfileOne(context.Background(), si, s, a)
			if err != nil {
				t.Fatalf("ProfileOne(%d, %s): %v", si, a.Name, err)
			}
			ref.Profiles[ai][si] = prof
			ref.Instances = append(ref.Instances, inst...)
		}
	}
	want := testutil.DatasetBytes(t, ref)
	testutil.AssertSameBytes(t, "Collect vs ProfileOne loop", want, collect(t, corpus, archs, 0))
}

// benchCollect times what the collect_mem workload times: one Collect
// pass over the default corpus (core.DefaultConfig's 40 + 30 stencils up
// to order 4, corpus seed 1, 12 samples per OC, spelled out because this
// package cannot import core) with a fresh profiler and model per
// iteration, under a cancelable context like the signal context the
// benchmark harness passes, so a lock on the polling path shows.
func benchCollect(b *testing.B, workers int) {
	corpus, err := gen.MixedCorpus(40, 30, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	archs := testutil.AllArchs(b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profile.NewProfiler(12, 1001)
		p.Model = sim.New()
		p.Workers = workers
		if _, err := p.Collect(ctx, corpus, archs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectSerial(b *testing.B)   { benchCollect(b, 1) }
func BenchmarkCollectParallel(b *testing.B) { benchCollect(b, 0) }
