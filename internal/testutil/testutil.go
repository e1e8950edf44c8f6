// Package testutil holds the shared fixtures and assertion helpers of
// the differential determinism suite: seeded corpora, byte-level dataset
// golden comparisons, and GOMAXPROCS manipulation. Tests that compare a
// parallel path against its serial reference build both inputs here so
// every package checks the same property the same way.
package testutil

import (
	"bytes"
	"runtime"
	"testing"

	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/profile"
	"stencilmart/internal/stencil"
)

// CorpusSeed is the fixed seed for the differential-suite corpus, chosen
// once so goldens stay comparable across tests and packages.
const CorpusSeed = 424242

// SmallCorpus returns the suite's deterministic 12-stencil corpus
// (6 two-dimensional + 6 three-dimensional, orders up to 3).
func SmallCorpus(t testing.TB) []stencil.Stencil {
	t.Helper()
	corpus, err := gen.MixedCorpus(6, 6, 3, CorpusSeed)
	if err != nil {
		t.Fatalf("testutil: corpus generation: %v", err)
	}
	return corpus
}

// AllArchs returns the full Table III architecture catalog.
func AllArchs(t testing.TB) []gpu.Arch {
	t.Helper()
	archs := gpu.Catalog()
	if len(archs) == 0 {
		t.Fatal("testutil: empty GPU catalog")
	}
	return archs
}

// DatasetBytes serializes a dataset to its file's bytes. Two datasets are
// considered identical exactly when these bytes match.
func DatasetBytes(t testing.TB, d *profile.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatalf("testutil: dataset serialization: %v", err)
	}
	return buf.Bytes()
}

// AssertSameBytes fails the test when two byte strings differ, reporting
// the first divergence with surrounding context rather than dumping both.
func AssertSameBytes(t testing.TB, label string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	at := 0
	for at < min(len(want), len(got)) && want[at] == got[at] {
		at++
	}
	snip := func(b []byte) []byte { return b[min(max(at-40, 0), len(b)):min(at+40, len(b))] }
	t.Fatalf("%s: outputs differ at byte %d (want %d bytes, got %d)\nwant ...%q...\ngot  ...%q...",
		label, at, len(want), len(got), snip(want), snip(got))
}

// WithGOMAXPROCS runs fn with the given GOMAXPROCS, restoring the prior
// value afterwards even if fn fails the test.
func WithGOMAXPROCS(t testing.TB, n int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}
