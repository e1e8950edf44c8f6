package profile_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

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

// countingCells counts sample evaluations through to the clean model.
type countingCells struct {
	model *sim.Model
	calls atomic.Int64
	// cancelAfter, when > 0, cancels the attached context once that many
	// calls have been observed — simulating a kill mid-collection.
	cancelAfter int64
	cancel      context.CancelFunc
}

func (c *countingCells) CellFn(w sim.Workload, arch gpu.Arch) sim.EvalFn {
	eval := c.model.CellFn(w, arch)
	return func(oc opt.Opt, p opt.Params) (sim.Result, error) {
		n := c.calls.Add(1)
		if c.cancelAfter > 0 && n == c.cancelAfter && c.cancel != nil {
			c.cancel()
		}
		return eval(oc, p)
	}
}

// baselineBytes is the uninterrupted Collect reference the resumed runs
// must match bitwise.
func baselineBytes(t *testing.T, stencils []stencil.Stencil, archs []gpu.Arch) []byte {
	t.Helper()
	ds, err := journalProfiler().Collect(context.Background(), stencils, archs)
	if err != nil {
		t.Fatalf("baseline Collect: %v", err)
	}
	return testutil.DatasetBytes(t, ds)
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
	testutil.AssertSameBytes(t, "fresh journaled dataset", want, testutil.DatasetBytes(t, ds))
}

// TestJournalResumeAfterCellFailure: a run in which every cell of one
// architecture fails (its substrate answers NaN) keeps the completed
// cells in the journal; the rerun re-measures only the failed cells and
// assembles the exact uninterrupted dataset.
func TestJournalResumeAfterCellFailure(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")

	// Run 1: arch[1] measurements always answer NaN.
	model := sim.New()
	failing := cellsFunc(func(w sim.Workload, arch gpu.Arch) sim.EvalFn {
		if arch.Name == archs[1].Name {
			return func(opt.Opt, opt.Params) (sim.Result, error) { return sim.Result{Time: math.NaN()}, nil }
		}
		return model.CellFn(w, arch)
	})
	p1 := journalProfiler()
	p1.Model = failing
	_, _, err := p1.CollectJournal(context.Background(), path, stencils, archs)
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("failing run returned %v, want a non-finite error", err)
	}

	// Run 2: clean substrate, same collection identity.
	counting := &countingCells{model: sim.New()}
	p2 := journalProfiler()
	p2.Model = counting
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
	testutil.AssertSameBytes(t, "resumed dataset", want, testutil.DatasetBytes(t, ds))
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
	interrupting := &countingCells{model: sim.New(), cancelAfter: int64(opt.NumCombinations*2 + 10), cancel: cancel}
	p1 := journalProfiler()
	p1.Model = interrupting
	_, _, err := p1.CollectJournal(ctx, path, stencils, archs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}

	counting := &countingCells{model: sim.New()}
	p2 := journalProfiler()
	p2.Model = counting
	ds, stats, err := p2.CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if stats.Resumed != 1 || stats.Measured != 7 {
		t.Fatalf("resume stats %+v, want exactly the completed cell resumed", stats)
	}
	testutil.AssertSameBytes(t, "post-interrupt dataset", want, testutil.DatasetBytes(t, ds))
}

// TestJournalTruncatedTail: a journal cut at every byte offset of its
// final record (a kill mid-append) replays the cells before it, is
// truncated to that good prefix on open, and resumes by re-measuring only
// the damaged cell — whose record restores the journal byte for byte.
func TestJournalTruncatedTail(t *testing.T) {
	stencils, archs := testutil.SmallCorpus(t)[:5], gpu.Catalog()[:1] // five cells
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")
	if _, _, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}
	parts := journalParts(t, path)
	raw := bytes.Join(parts, nil)
	last := len(raw) - len(parts[len(parts)-1])

	for cut := last + 1; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		replay, err := persist.ReadWAL(path, profile.JournalKind, profile.JournalVersion)
		if err != nil || len(replay.Records) != 4 || replay.TruncatedBytes != int64(cut-last) {
			t.Fatalf("cut at %d: replay holds %d cells, drops %d bytes (%v); want 4 cells and %d bytes", cut, len(replay.Records), replay.TruncatedBytes, err, cut-last)
		}
	}

	// Resume — the part that measures — at three of those offsets.
	for _, cut := range []int{last + 1, (last + len(raw)) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		counting := &countingCells{model: sim.New()}
		p := journalProfiler()
		p.Model = counting
		ds, stats, err := p.CollectJournal(context.Background(), path, stencils, archs)
		if err != nil {
			t.Fatalf("resume over tail cut at %d: %v", cut, err)
		}
		if stats.Resumed != 4 || stats.Measured != 1 || stats.RepairedBytes != int64(cut-last) {
			t.Fatalf("truncation stats %+v, want 4 resumed + 1 re-measured + %d repaired bytes", stats, cut-last)
		}
		if got, wantCalls := counting.calls.Load(), int64(opt.NumCombinations*2); got != wantCalls {
			t.Fatalf("re-measured %d samples, want exactly one cell's %d", got, wantCalls)
		}
		testutil.AssertSameBytes(t, "repaired dataset", want, testutil.DatasetBytes(t, ds))
		testutil.AssertSameBytes(t, "repaired journal", raw, bytes.Join(journalParts(t, path), nil))
	}
}

// TestJournalCorruptRecord: flipping any one byte of a middle record —
// its length, its digest, its columns — invalidates that record and
// everything after it (append-only logs have no authority past the first
// damage): no cell behind it is silently kept or lost, and the resume
// re-measures exactly that tail.
func TestJournalCorruptRecord(t *testing.T) {
	stencils, archs := journalFixture(t)
	want := baselineBytes(t, stencils, archs)
	path := filepath.Join(t.TempDir(), "collect.journal")
	if _, _, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}
	// parts[0] is the header, parts[1..8] one record per cell in completion
	// order (Workers == 1 completes cells in index order).
	parts := journalParts(t, path)
	if len(parts) != 9 {
		t.Fatalf("journal has %d parts, want header + 8 records", len(parts))
	}
	raw := bytes.Join(parts, nil)
	start := len(bytes.Join(parts[:6], nil)) // cell index 5
	for at := start; at < start+len(parts[6]); at++ {
		damaged := append([]byte(nil), raw...)
		damaged[at] ^= 0x04
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		covered, err := journalProfiler().JournalCoverage([]string{path}, stencils, archs)
		if err != nil {
			t.Fatalf("byte %d: %v", at, err)
		}
		for i, has := range covered {
			if has != (i < 5) {
				t.Fatalf("byte %d: cell %d covered = %v, want cells 0-4 only", at, i, has)
			}
		}
	}

	ds, stats, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("resume over corrupt record: %v", err)
	}
	if stats.Resumed != 5 || stats.Measured != 3 || stats.RepairedBytes != int64(len(raw)-start) {
		t.Fatalf("corruption stats %+v, want 5 resumed + 3 re-measured + %d repaired bytes", stats, len(raw)-start)
	}
	testutil.AssertSameBytes(t, "post-corruption dataset", want, testutil.DatasetBytes(t, ds))
	testutil.AssertSameBytes(t, "post-corruption journal", raw, bytes.Join(journalParts(t, path), nil))
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

// journalV1 is the start of a version-1 journal, copied from what commit
// 8a94af0 wrote for this fixture: the header line, then the first bytes of
// a JSON cell record.
const journalV1 = `{"magic":"stencilmart-checkpoint","kind":"stencilmart-profile-journal","version":1,"checksum":"376dd26933ccaba9b4bc87e48022e9f33f67f6e8943f1e6c0a9731f9d5abc3d2","payload":{"seed":11,"samples_per_oc":2,"trials":1,"corpus":"c35391bc943f27430d6d7f37f5e67e6f99a282c399a95afce0b8550a252d0fe0","cells":8}}
{"checksum":"528b9298a03cfc277d17a23fc733df044a7b7dd4299c468613a710a3b9109fb4","payload":{"index":0,"profile":{"StencilIdx":0,"Arch":"P100","Results":[{"oc":0,"time":0.018201292321136656,"params":{"BlockX":32,"BlockY":1,"Merge":1,"MergeDim":0,`

// TestJournalV1Refused: a version-1 journal is refused from its header —
// every entry point, the same *VersionError a checkpoint gives, and not a
// byte of the file changed (nothing is truncated as a "damaged tail").
func TestJournalV1Refused(t *testing.T) {
	stencils, archs := journalFixture(t)
	path := filepath.Join(t.TempDir(), "collect.journal")
	if err := os.WriteFile(path, []byte(journalV1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, collectErr := journalProfiler().CollectJournal(context.Background(), path, stencils, archs)
	_, _, mergeErr := journalProfiler().MergeJournals([]string{path}, stencils, archs)
	_, shardErr := journalProfiler().CollectShard(context.Background(), path, stencils, archs, []int{0}, nil)
	for what, err := range map[string]error{"CollectJournal": collectErr, "MergeJournals": mergeErr, "CollectShard": shardErr} {
		var ve *persist.VersionError
		if !errors.As(err, &ve) || ve.Got != 1 || ve.Want != profile.JournalVersion {
			t.Errorf("%s over a version-1 journal returned %v, want *persist.VersionError 1 → %d", what, err, profile.JournalVersion)
		}
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != journalV1 {
		t.Fatalf("a refused journal was modified (%v)", err)
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

// journalParts splits a journal file into its header line and its
// records, each with its length prefix and digest.
func journalParts(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(raw, '\n') + 1
	parts := [][]byte{raw[:nl]}
	for rest := raw[nl:]; len(rest) > 0; {
		n, w := binary.Uvarint(rest)
		end := w + sha256.Size + int(n)
		if w <= 0 || end > len(rest) {
			t.Fatalf("journal %s: record %d is cut short", path, len(parts))
		}
		parts, rest = append(parts, rest[:end]), rest[end:]
	}
	return parts
}

func writeJournalParts(t *testing.T, path string, parts [][]byte) {
	t.Helper()
	if err := os.WriteFile(path, bytes.Join(parts, nil), 0o644); err != nil {
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

	lines := journalParts(t, path)
	if len(lines) != 9 {
		t.Fatalf("journal has %d parts, want header + 8 records", len(lines))
	}
	dup := append([][]byte{}, lines...)
	dup = append(dup, lines[3]) // duplicate cell index 2, byte-identical
	writeJournalParts(t, path, dup)

	ds, stats, err := journalProfiler().CollectJournal(context.Background(), path, stencils, archs)
	if err != nil {
		t.Fatalf("resume over identical duplicate: %v", err)
	}
	if stats.Resumed != 8 || stats.Measured != 0 {
		t.Fatalf("duplicate stats %+v, want all 8 unique cells resumed", stats)
	}
	testutil.AssertSameBytes(t, "deduped dataset", want, testutil.DatasetBytes(t, ds))
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

	// Append a validly-checksummed, well-formed record for an already-
	// present index whose numbers differ from the original measurement:
	// cell 5 as a collection under another seed measured it.
	otherPath := filepath.Join(t.TempDir(), "other.journal")
	other := journalProfiler()
	other.Seed++
	if _, _, err := other.CollectJournal(context.Background(), otherPath, stencils, archs); err != nil {
		t.Fatal(err)
	}
	writeJournalParts(t, path, append(journalParts(t, path), journalParts(t, otherPath)[6]))

	_, _, err := p.CollectJournal(context.Background(), path, stencils, archs)
	if !errors.Is(err, profile.ErrJournalMismatch) {
		t.Fatalf("divergent duplicate returned %v, want ErrJournalMismatch", err)
	}
	if !strings.Contains(err.Error(), "divergent duplicate") {
		t.Fatalf("mismatch error %q does not name the divergent duplicate", err)
	}
}

// TestJournalRecordRefusals: a record that is intact as bytes (its digest
// holds) but is not a cell of this collection — an index outside
// [0, cells), a profile without opt.NumCombinations results, columns cut
// short or left over — fails the replay with ErrJournalMismatch. Nothing
// of it is absorbed and nothing panics.
func TestJournalRecordRefusals(t *testing.T) {
	stencils, archs := journalFixture(t)
	clean := filepath.Join(t.TempDir(), "collect.journal")
	if _, _, err := journalProfiler().CollectJournal(context.Background(), clean, stencils, archs); err != nil {
		t.Fatalf("initial CollectJournal: %v", err)
	}
	parts := journalParts(t, clean)
	// forge spells a cell record column by column: index, a profile of the
	// given number of results, no instances, then extra.
	forge := func(index, results int, extra ...byte) []byte {
		var c persist.Columns
		times := make([]float64, results)
		for i := range times {
			times[i] = 1
		}
		persist.AppendInts(&c, []int{index})
		persist.AppendInts(&c, make([]uint8, results))
		persist.AppendInts(&c, make([]uint8, results))
		c.AppendFloats(times)
		persist.AppendInts(&c, make([]int, 10*results))
		persist.AppendInts(&c, []uint8{0})
		c.AppendFloats([]float64{1})
		persist.AppendInts(&c, []uint8{})
		c.AppendFloats(nil)
		persist.AppendInts(&c, []int{})
		return append(c.Bytes(), extra...)
	}
	replay, err := persist.ReadWAL(clean, profile.JournalKind, profile.JournalVersion)
	if err != nil {
		t.Fatal(err)
	}
	cell5 := replay.Records[5]
	for name, tc := range map[string]struct {
		payload []byte
		says    string
	}{
		"index == cells":        {forge(8, opt.NumCombinations), "cells [8], want one in [0,8)"},
		"negative index":        {forge(-1, opt.NumCombinations), "cells [-1], want one in [0,8)"},
		"29 results":            {forge(5, opt.NumCombinations-1), "ragged result columns"},
		"31 results":            {forge(5, opt.NumCombinations+1), "ragged result columns"},
		"a column left over":    {forge(5, opt.NumCombinations, 'i', 0), "bytes follow the last column"},
		"columns cut short":     {cell5[:len(cell5)/2], "column"},
		"an empty record":       {nil, "column"},
		"a dataset's worth":     {splitFile(t, smallFile(t)).section(), "want one in [0,8)"},
		"a version-1 JSON cell": {[]byte(`{"index":5,"profile":{"StencilIdx":1,"Arch":"V100","Results":[]},"instances":[]}`), "column"},
	} {
		path := filepath.Join(t.TempDir(), "forged.journal")
		writeJournalParts(t, path, parts[:6])
		w, _, err := persist.OpenWAL(path, profile.JournalKind, profile.JournalVersion, struct{}{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(tc.payload); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, _, collectErr := journalProfiler().CollectJournal(context.Background(), path, stencils, archs)
		_, _, mergeErr := journalProfiler().MergeJournals([]string{path}, stencils, archs)
		for what, err := range map[string]error{"CollectJournal": collectErr, "MergeJournals": mergeErr} {
			if !errors.Is(err, profile.ErrJournalMismatch) || !strings.Contains(err.Error(), tc.says) {
				t.Errorf("%s: %s returned %v, want ErrJournalMismatch saying %q", name, what, err, tc.says)
			}
		}
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

	lines := journalParts(t, path)
	if len(lines) != 9 {
		t.Fatalf("journal has %d parts, want header + 8 records", len(lines))
	}
	// Rebuild as: header, r0..r4, dup(r2), r5, r6, then a half-written r7.
	var out [][]byte
	out = append(out, lines[:6]...)    // header + r0..r4
	out = append(out, lines[3])        // duplicate of cell 2
	out = append(out, lines[6:8]...)   // r5, r6
	tail := lines[8][:len(lines[8])/2] // r7 cut mid-record
	out = append(out, tail)
	writeJournalParts(t, path, out)

	counting := &countingCells{model: sim.New()}
	p := journalProfiler()
	p.Model = counting
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
	testutil.AssertSameBytes(t, "repaired deduped dataset", want, testutil.DatasetBytes(t, ds))
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
