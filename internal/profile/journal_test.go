package profile_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stencilmart/internal/fault"
	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/persist"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/testutil"
)

// journalFixture is the shared small collection the resume tests run:
// 4 stencils x 2 architectures = 8 cells, 2 samples per OC.
func journalFixture(t *testing.T) ([]stencil.Stencil, []gpu.Arch) {
	t.Helper()
	return testutil.SmallCorpus(t)[:4], gpu.Catalog()[:2]
}

func journalProfiler() *profile.Profiler {
	return &profile.Profiler{Model: sim.New(), SamplesPerOC: 2, Seed: 11, Workers: 1}
}

// countingRunner counts Run calls through to the clean model.
type countingRunner struct {
	model *sim.Model
	calls atomic.Int64
	// cancelAfter, when > 0, cancels the attached context once that many
	// calls have been observed — simulating a kill mid-collection.
	cancelAfter int64
	cancel      context.CancelFunc
}

func (c *countingRunner) Run(w sim.Workload, oc opt.Opt, p opt.Params, arch gpu.Arch) (sim.Result, error) {
	n := c.calls.Add(1)
	if c.cancelAfter > 0 && n == c.cancelAfter && c.cancel != nil {
		c.cancel()
	}
	return c.model.Run(w, oc, p, arch)
}

// baselineBytes is the uninterrupted Collect reference the resumed runs
// must match bitwise.
func baselineBytes(t *testing.T, stencils []stencil.Stencil, archs []gpu.Arch) []byte {
	t.Helper()
	ds, err := journalProfiler().Collect(context.Background(), stencils, archs)
	if err != nil {
		t.Fatalf("baseline Collect: %v", err)
	}
	return testutil.DatasetJSON(t, ds)
}

// TestCollectJournalFreshMatchesCollect: with no prior journal, the
// journaled path is plain Collect plus a WAL — same bytes out.
func TestCollectJournalFreshMatchesCollect(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")
	ds, stats, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("CollectJournal: %v", err)
	}
	if stats.Resumed != 0 || stats.Measured != 8 || stats.Cells != 8 || stats.RepairedBytes != 0 {
		t.Fatalf("fresh-run stats %+v", stats)
	}
	testutil.AssertSameBytes(t, "fresh journaled dataset", want, testutil.DatasetJSON(t, ds))
}

// TestJournalResumeAfterCellFailure: a run in which every cell of one
// architecture exhausts its retries keeps the completed cells in the
// journal; the rerun re-measures only the failed cells and assembles the
// exact uninterrupted dataset.
func TestJournalResumeAfterCellFailure(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")

	// Run 1: arch[1] measurements always fault transiently.
	model := sim.New()
	failing := runnerFunc(func(w sim.Workload, oc opt.Opt, p opt.Params, arch gpu.Arch) (sim.Result, error) {
		if arch.Name == archs[1].Name {
			return sim.Result{}, &fault.TransientError{}
		}
		return model.Run(w, oc, p, arch)
	})
	p1 := journalProfiler()
	p1.Runner = failing
	p1.Retry = profile.RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	_, _, err := p1.CollectJournal(context.Background(), path, stencils, archs)
	var give *profile.GiveUpError
	if !errors.As(err, &give) {
		t.Fatalf("faulted run returned %v, want a give-up", err)
	}

	// Run 2: clean substrate, same collection identity.
	counting := &countingRunner{model: sim.New()}
	p2 := journalProfiler()
	p2.Runner = counting
	ds, stats, err := p2.CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if stats.Resumed != 4 || stats.Measured != 4 {
		t.Fatalf("resume stats %+v, want 4 resumed + 4 measured", stats)
	}
	// Only the 4 failed cells are re-measured: 30 OCs x 2 samples each.
	if got, wantCalls := counting.calls.Load(), int64(4*opt.NumCombinations*2); got != wantCalls {
		t.Fatalf("resume measured %d samples, want exactly %d (the missing cells)", got, wantCalls)
	}
	testutil.AssertSameBytes(t, "resumed dataset", want, testutil.DatasetJSON(t, ds))
}

// TestJournalResumeAfterCancel: cancelling mid-collection (the SIGINT /
// kill path) loses at most the in-flight cells; the rerun resumes the
// journaled prefix and completes to identical bytes.
func TestJournalResumeAfterCancel(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel 10 samples into the second cell: cell 0 is journaled, cell 1
	// is in-flight and lost.
	interrupting := &countingRunner{model: sim.New(), cancelAfter: int64(opt.NumCombinations*2 + 10), cancel: cancel}
	p1 := journalProfiler()
	p1.Runner = interrupting
	_, _, err := p1.CollectJournal(ctx, path, stencils, archs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}

	counting := &countingRunner{model: sim.New()}
	p2 := journalProfiler()
	p2.Runner = counting
	ds, stats, err := p2.CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if stats.Resumed != 1 || stats.Measured != 7 {
		t.Fatalf("resume stats %+v, want exactly the completed cell resumed", stats)
	}
	testutil.AssertSameBytes(t, "post-interrupt dataset", want, testutil.DatasetJSON(t, ds))
}

// TestJournalTruncatedTail: a journal whose final record was half-written
// (kill mid-append) resumes by re-measuring only the damaged cell.
func TestJournalTruncatedTail(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")
	if _, _, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	counting := &countingRunner{model: sim.New()}
	p := journalProfiler()
	p.Runner = counting
	ds, stats, err := p.CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("resume over truncated tail: %v", err)
	}
	if stats.Resumed != 7 || stats.Measured != 1 || stats.RepairedBytes == 0 {
		t.Fatalf("truncation stats %+v, want 7 resumed + 1 re-measured + repaired bytes", stats)
	}
	if got, wantCalls := counting.calls.Load(), int64(opt.NumCombinations*2); got != wantCalls {
		t.Fatalf("re-measured %d samples, want exactly one cell's %d", got, wantCalls)
	}
	testutil.AssertSameBytes(t, "repaired dataset", want, testutil.DatasetJSON(t, ds))
}

// TestJournalCorruptRecord: flipping one byte inside a middle record
// invalidates that record and everything after it (append-only logs have
// no authority past the first damage), and the resume re-measures exactly
// that tail.
func TestJournalCorruptRecord(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")
	if _, _, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Lines: [0] header, [1..8] one record per cell in completion order
	// (Workers == 1 completes cells in index order).
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 9 {
		t.Fatalf("journal has %d lines, want header + 8 records", len(lines))
	}
	target := lines[6] // cell index 5
	idx := bytes.Index(target, []byte(`"checksum":"`))
	if idx < 0 {
		t.Fatalf("record line holds no checksum: %q", target[:60])
	}
	at := idx + len(`"checksum":"`)
	if target[at] == '0' { // flip one hex digit of the stored checksum
		target[at] = '1'
	} else {
		target[at] = '0'
	}
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	counting := &countingRunner{model: sim.New()}
	p := journalProfiler()
	p.Runner = counting
	ds, stats, err := p.CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("resume over corrupt record: %v", err)
	}
	if stats.Resumed != 5 || stats.Measured != 3 || stats.RepairedBytes == 0 {
		t.Fatalf("corruption stats %+v, want 5 resumed + 3 re-measured + repaired bytes", stats)
	}
	testutil.AssertSameBytes(t, "post-corruption dataset", want, testutil.DatasetJSON(t, ds))
}

// TestJournalVersionMismatch: a journal from an incompatible schema
// version is refused with the persist version error, not misread.
func TestJournalVersionMismatch(t *testing.T) {
	stencils, archs := journalFixture(t)
	path := filepath.Join(t.TempDir(), "collect.journal")
	w, _, err := persist.OpenWAL(path, profile.JournalKind, profile.JournalVersion+1, struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, _, err = journalProfiler().CollectJournal(context.Background(), path, stencils, archs)
	var ve *persist.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want a persist.VersionError", err)
	}
}

// TestJournalArchSpecMismatch: the journal identity must cover the full
// architecture specs, not just their names. A catalog entry whose spec
// changed (here: memory bandwidth) measures different times, so resuming
// a journal collected under the old spec would silently splice
// incompatible measurements — it must be refused.
func TestJournalArchSpecMismatch(t *testing.T) {
	stencils, archs := journalFixture(t)
	path := filepath.Join(t.TempDir(), "collect.journal")
	if _, _, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}
	modified := append([]gpu.Arch(nil), archs...)
	modified[1].MemBWGBs += 100 // same Name, different hardware
	_, _, err := journalProfiler().CollectJournal(context.Background(), path, stencils, modified)
	if !errors.Is(err, profile.ErrJournalMismatch) {
		t.Fatalf("resume against a changed arch spec returned %v, want ErrJournalMismatch", err)
	}
}

// journalLines splits a journal file into its header + record lines.
func journalLines(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

func writeJournalLines(t *testing.T, path string, lines [][]byte) {
	t.Helper()
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDuplicateIdentical: a byte-identical duplicate record (a
// re-dispatched shard, a doubly-flushed append) is tolerated — the
// duplicate is counted once and the assembled dataset is unchanged.
func TestJournalDuplicateIdentical(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")
	if _, _, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}

	lines := journalLines(t, path)
	if len(lines) != 9 {
		t.Fatalf("journal has %d lines, want header + 8 records", len(lines))
	}
	dup := append([][]byte{}, lines...)
	dup = append(dup, lines[3]) // duplicate cell index 2, byte-identical
	writeJournalLines(t, path, dup)

	ds, stats, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("resume over identical duplicate: %v", err)
	}
	if stats.Resumed != 8 || stats.Measured != 0 {
		t.Fatalf("duplicate stats %+v, want all 8 unique cells resumed", stats)
	}
	testutil.AssertSameBytes(t, "deduped dataset", want, testutil.DatasetJSON(t, ds))
}

// TestJournalDuplicateDivergent: two records claiming the same cell with
// different bytes cannot both be right; last-write-wins used to silently
// pick one. The replay must fail with ErrJournalMismatch instead.
func TestJournalDuplicateDivergent(t *testing.T) {
	stencils, archs := journalFixture(t)
	path := filepath.Join(t.TempDir(), "collect.journal")
	p := journalProfiler()
	if _, _, err := p.CollectJournal(context.Background(), path, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}

	// Append a validly-checksummed record for an already-present index
	// whose payload differs from the original measurement.
	meta := struct{}{}
	w, _, err := persist.OpenWAL(path, profile.JournalKind, profile.JournalVersion, meta)
	if err != nil {
		t.Fatal(err)
	}
	forged := struct {
		Index int `json:"index"`
	}{Index: 5}
	if err := w.Append(forged); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, _, err = p.CollectJournal(context.Background(), path, stencils, archs)
	if !errors.Is(err, profile.ErrJournalMismatch) {
		t.Fatalf("divergent duplicate returned %v, want ErrJournalMismatch", err)
	}
	if !strings.Contains(err.Error(), "divergent duplicate") {
		t.Fatalf("mismatch error %q does not name the divergent duplicate", err)
	}
}

// TestResumeStatsDamagedTailWithDuplicates: the accounting must stay
// exact when a journal holds both a duplicated record and a damaged
// tail — Resumed counts unique cells, Measured counts the re-measured
// remainder, and RepairedBytes reports the dropped tail.
func TestResumeStatsDamagedTailWithDuplicates(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")
	if _, _, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}

	lines := journalLines(t, path)
	if len(lines) != 9 {
		t.Fatalf("journal has %d lines, want header + 8 records", len(lines))
	}
	// Rebuild as: header, r0..r4, dup(r2), r5, r6, then a half-written r7.
	var out [][]byte
	out = append(out, lines[:6]...)    // header + r0..r4
	out = append(out, lines[3])        // duplicate of cell 2
	out = append(out, lines[6:8]...)   // r5, r6
	tail := lines[8][:len(lines[8])/2] // r7 cut mid-line
	out = append(out, tail)
	writeJournalLines(t, path, out)

	counting := &countingRunner{model: sim.New()}
	p := journalProfiler()
	p.Runner = counting
	ds, stats, err := p.CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("resume over duplicate + damaged tail: %v", err)
	}
	if stats.Cells != 8 || stats.Resumed != 7 || stats.Measured != 1 {
		t.Fatalf("stats %+v, want 7 unique resumed + 1 re-measured of 8", stats)
	}
	if stats.RepairedBytes != int64(len(tail)) {
		t.Fatalf("RepairedBytes = %d, want the %d dropped tail bytes", stats.RepairedBytes, len(tail))
	}
	if got, wantCalls := counting.calls.Load(), int64(opt.NumCombinations*2); got != wantCalls {
		t.Fatalf("re-measured %d samples, want exactly one cell's %d", got, wantCalls)
	}
	testutil.AssertSameBytes(t, "repaired deduped dataset", want, testutil.DatasetJSON(t, ds))
}

// TestJournalMetaMismatch: a journal written under a different seed (or
// corpus, budget, trial count) must not be spliced into this collection.
func TestJournalMetaMismatch(t *testing.T) {
	stencils, archs := journalFixture(t)
	path := filepath.Join(t.TempDir(), "collect.journal")
	if _, _, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}
	other := journalProfiler()
	other.Seed = 12
	_, _, err := other.CollectJournal(context.Background(), path, stencils, archs)
	if !errors.Is(err, profile.ErrJournalMismatch) {
		t.Fatalf("got %v, want ErrJournalMismatch", err)
	}
	if !strings.Contains(err.Error(), "journal") {
		t.Fatalf("mismatch error %q does not mention the journal", err)
	}
}
