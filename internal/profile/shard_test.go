package profile_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/testutil"
)

// shardRanges partitions [0, n) into k contiguous cell-index lists.
func shardRanges(n, k int) [][]int {
	out := make([][]int, k)
	for i := 0; i < n; i++ {
		s := i * k / n
		out[s] = append(out[s], i)
	}
	return out
}

// collectShards runs one CollectShard per partition into its own WAL
// file and returns the shard paths.
func collectShards(t *testing.T, dir string, stencils []stencil.Stencil, archs []gpu.Arch, parts [][]int) []string {
	t.Helper()
	var paths []string
	for si, cells := range parts {
		path := filepath.Join(dir, "shard-"+string(rune('a'+si))+".wal")
		p := journalProfiler()
		if _, err := p.CollectShard(context.Background(), path, stencils, archs, cells, nil); err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
		paths = append(paths, path)
	}
	return paths
}

// TestMergeShardsIdenticalToSerial: splitting the cell space across
// shard journals written by independent profilers and merging them
// assembles the exact bytes of a serial CollectJournal run — at
// GOMAXPROCS 1 and 4.
func TestMergeShardsIdenticalToSerial(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	for _, procs := range []int{1, 4} {
		testutil.WithGOMAXPROCS(t, procs, func() {
			dir := t.TempDir()
			paths := collectShards(t, dir, stencils, archs, shardRanges(len(stencils)*len(archs), 3))
			ds, stats, err := journalProfiler().MergeJournals(paths, stencils, archs)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: merge: %v", procs, err)
			}
			if stats.Shards != 3 || stats.Cells != 8 || stats.Duplicates != 0 {
				t.Fatalf("GOMAXPROCS %d: merge stats %+v", procs, stats)
			}
			testutil.AssertSameBytes(t, "merged dataset", want, testutil.DatasetBytes(t, ds))
		})
	}
}

// TestMergeOverlappingShards: overlapping shard assignments (the
// straggler-re-dispatch case: two workers measured the same cells)
// produce byte-identical duplicate records, which the merge dedups.
func TestMergeOverlappingShards(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	parts := [][]int{{0, 1, 2, 3}, {3, 4, 5, 6}, {6, 7, 0}}
	paths := collectShards(t, t.TempDir(), stencils, archs, parts)
	ds, stats, err := journalProfiler().MergeJournals(paths, stencils, archs)
	if err != nil {
		t.Fatalf("merge overlapping shards: %v", err)
	}
	if stats.Duplicates != 3 {
		t.Fatalf("merge stats %+v, want 3 tolerated duplicates (cells 3, 6, 0)", stats)
	}
	testutil.AssertSameBytes(t, "overlap-merged dataset", want, testutil.DatasetBytes(t, ds))
}

// TestMergeKilledWorkerShard: a worker killed mid-shard leaves a partial
// shard journal; re-dispatching the whole shard to a fresh worker (new
// attempt file) and merging everything — including the dead worker's
// partial shard — still assembles the serial bytes.
func TestMergeKilledWorkerShard(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	dir := t.TempDir()
	parts := shardRanges(len(stencils)*len(archs), 2)

	// Shard 0 completes normally.
	okPath := filepath.Join(dir, "shard-0-a1.wal")
	if _, err := journalProfiler().CollectShard(context.Background(), okPath, stencils, archs, parts[0], nil); err != nil {
		t.Fatal(err)
	}

	// Shard 1's first attempt dies after its first completed cell.
	deadPath := filepath.Join(dir, "shard-1-a1.wal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p1 := journalProfiler()
	p1.Model = &countingCells{model: sim.New()}
	var completed int
	_, err := p1.CollectShard(ctx, deadPath, stencils, archs, parts[1], func(int) {
		completed++
		if completed == 1 {
			cancel() // the kill lands mid-shard, after one durable cell
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed shard attempt returned %v, want context.Canceled", err)
	}

	// The lease expires and the whole shard is re-dispatched to a fresh
	// worker writing its own attempt file.
	retryPath := filepath.Join(dir, "shard-1-a2.wal")
	if _, err := journalProfiler().CollectShard(context.Background(), retryPath, stencils, archs, parts[1], nil); err != nil {
		t.Fatalf("re-dispatched shard: %v", err)
	}

	ds, stats, err := journalProfiler().MergeJournals([]string{okPath, deadPath, retryPath}, stencils, archs)
	if err != nil {
		t.Fatalf("merge with killed worker: %v", err)
	}
	if stats.Shards != 3 || stats.Duplicates == 0 {
		t.Fatalf("merge stats %+v, want the dead worker's cells deduped", stats)
	}
	testutil.AssertSameBytes(t, "killed-worker merged dataset", want, testutil.DatasetBytes(t, ds))
}

// TestCollectShardResume: re-running an interrupted shard against its
// own journal resumes the completed cells instead of re-measuring.
func TestCollectShardResume(t *testing.T) {
	stencils, archs := journalFixture(t)
	path := filepath.Join(t.TempDir(), "shard.wal")
	cells := []int{2, 3, 4, 5}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p1 := journalProfiler()
	var completed int
	_, err := p1.CollectShard(ctx, path, stencils, archs, cells, func(int) {
		completed++
		if completed == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted shard returned %v, want context.Canceled", err)
	}

	st, err := journalProfiler().CollectShard(context.Background(), path, stencils, archs, cells, nil)
	if err != nil {
		t.Fatalf("shard resume: %v", err)
	}
	if st.Assigned != 4 || st.Resumed < 2 || st.Resumed+st.Measured != 4 {
		t.Fatalf("shard resume stats %+v, want >= 2 resumed of 4", st)
	}
}

// TestMergeIncomplete: merging shards that do not cover the whole cell
// space reports ErrJournalIncomplete (the campaign is still running),
// not a bogus dataset.
func TestMergeIncomplete(t *testing.T) {
	stencils, archs := journalFixture(t)
	parts := shardRanges(len(stencils)*len(archs), 3)
	paths := collectShards(t, t.TempDir(), stencils, archs, parts[:2])
	_, _, err := journalProfiler().MergeJournals(paths, stencils, archs)
	if !errors.Is(err, profile.ErrJournalIncomplete) {
		t.Fatalf("partial merge returned %v, want ErrJournalIncomplete", err)
	}
}

// TestMergeRejectsForeignShard: a shard collected under a different
// profiler identity (seed) must not merge into this campaign.
func TestMergeRejectsForeignShard(t *testing.T) {
	stencils, archs := journalFixture(t)
	dir := t.TempDir()
	parts := shardRanges(len(stencils)*len(archs), 2)
	paths := collectShards(t, dir, stencils, archs, parts)

	foreign := journalProfiler()
	foreign.Seed = 999
	foreignPath := filepath.Join(dir, "foreign.wal")
	if _, err := foreign.CollectShard(context.Background(), foreignPath, stencils, archs, parts[0], nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := journalProfiler().MergeJournals(append(paths, foreignPath), stencils, archs)
	if !errors.Is(err, profile.ErrJournalMismatch) {
		t.Fatalf("foreign shard merged with %v, want ErrJournalMismatch", err)
	}
}
