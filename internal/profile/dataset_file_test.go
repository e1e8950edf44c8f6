package profile_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"stencilmart/internal/core"
	"stencilmart/internal/persist"
	"stencilmart/internal/profile"
	"stencilmart/internal/testutil"
)

// smallFile collects a small real dataset — 3 stencils on one GPU, 2
// samples per OC — and returns its file.
func smallFile(t testing.TB) []byte {
	t.Helper()
	p := profile.NewProfiler(2, testutil.CorpusSeed+1)
	d, err := p.Collect(context.Background(), testutil.SmallCorpus(t)[:3], testutil.AllArchs(t)[:1])
	if err != nil {
		t.Fatalf("seed dataset: %v", err)
	}
	return testutil.DatasetBytes(t, d)
}

// A dataset file's eleven columns, in the order they are written
// (DESIGN.md §7).
const (
	colResultOC = iota
	colResultCrashed
	colResultTime
	colResultParams
	colBestOC
	colBestTime
	colInstStencil
	colInstOC
	colInstArch
	colInstTime
	colInstParams
)

// column is one column taken out of a section: its integers or its floats.
type column struct {
	float  bool
	ints   []int64
	floats []float64
}

// fileParts is a dataset file taken apart for tampering.
type fileParts struct {
	manifest json.RawMessage
	cols     []column
}

func splitFile(t testing.TB, file []byte) *fileParts {
	t.Helper()
	var p fileParts
	cols, err := persist.Read(bytes.NewReader(file), profile.DatasetKind, profile.DatasetVersion, &p.manifest)
	if err != nil {
		t.Fatal(err)
	}
	for len(cols.Bytes()) > 0 {
		if cols.Bytes()[0] == 'f' {
			p.cols = append(p.cols, column{float: true, floats: cols.ReadFloats()})
		} else {
			p.cols = append(p.cols, column{ints: persist.ReadInts[int64](cols)})
		}
		if err := cols.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return &p
}

// section spells the columns by hand, from the format's description and
// not with the writer under test — which also lets a test write what the
// writer refuses to (a NaN).
func (p *fileParts) section() []byte {
	var b []byte
	for _, c := range p.cols {
		if c.float {
			b = binary.AppendUvarint(append(b, 'f'), uint64(len(c.floats)))
			for _, v := range c.floats {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
			continue
		}
		b = binary.AppendUvarint(append(b, 'i'), uint64(len(c.ints)))
		for _, v := range c.ints {
			b = binary.AppendVarint(b, v) // zig-zag, as the format's integers are
		}
	}
	return b
}

// frame wraps a manifest and a column section in a valid envelope (fresh
// checksum), so a failure under test is the reader's, not the checksum's.
func frame(t testing.TB, manifest, section []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := persist.Write(&out, profile.DatasetKind, profile.DatasetVersion, json.RawMessage(manifest), persist.ColumnsOf(section)); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestDatasetFileIsTheHandSpelledFrame pins the file's layout from the
// outside: the Corpus as manifest and the eleven columns of DESIGN.md §7,
// spelled without the writer, frame to the bytes Write wrote.
func TestDatasetFileIsTheHandSpelledFrame(t *testing.T) {
	file := smallFile(t)
	p := splitFile(t, file)
	if len(p.cols) != 11 {
		t.Fatalf("dataset file holds %d columns, want 11", len(p.cols))
	}
	if !strings.HasPrefix(string(file), `{"magic":"stencilmart-checkpoint","kind":"stencilmart-dataset","version":1,"checksum":"`) {
		t.Fatalf("header line starts %q", file[:80])
	}
	testutil.AssertSameBytes(t, "hand-spelled dataset file", file, frame(t, p.manifest, p.section()))
}

// TestDatasetFileRefusals: every way a dataset file can be wrong fails
// with the error class a checkpoint gives for the same damage, and the
// frame's refusals come before a column is read.
func TestDatasetFileRefusals(t *testing.T) {
	file := smallFile(t)
	tamper := func(edit func(p *fileParts), tail ...byte) []byte {
		p := splitFile(t, file)
		edit(p)
		return frame(t, p.manifest, append(p.section(), tail...))
	}
	with := func(edit func(file []byte) []byte) []byte { return edit(append([]byte(nil), file...)) }
	parentJSON, err := os.ReadFile("testdata/dataset_parent_8a94af0.json")
	if err != nil {
		t.Fatal(err)
	}
	// What `-dataset model.ckpt` hands Read: a checkpoint's frame. It is
	// refused from the header line, so the payload here is empty.
	var checkpoint bytes.Buffer
	if err := persist.Write(&checkpoint, core.CheckpointKind, core.CheckpointVersion, struct{}{}, &persist.Columns{}); err != nil {
		t.Fatal(err)
	}
	nan := math.Float64frombits(0x7ff8000000000001)
	var kindErr *persist.KindError
	var versionErr *persist.VersionError

	for _, tc := range []struct {
		name string
		file []byte
		is   error // errors.Is target, or
		as   any   // errors.As target, or
		says string
	}{
		// The frame's.
		{name: "one flipped column byte", file: with(func(f []byte) []byte { f[len(f)-9] ^= 0x01; return f }), is: persist.ErrChecksum},
		{name: "one flipped manifest byte", file: with(func(f []byte) []byte { f[bytes.IndexByte(f, '\n')+20] ^= 0x01; return f }), is: persist.ErrChecksum},
		{name: "appended bytes", file: with(func(f []byte) []byte { return append(f, "\n"...) }), is: persist.ErrCorrupt},
		{name: "truncated", file: file[:len(file)-100], is: persist.ErrCorrupt},
		{name: "truncated in the header", file: file[:40], is: persist.ErrCorrupt},
		{name: "lying column-section length", file: bytes.Replace(file, []byte(`,"columns":`), []byte(`,"columns":9`), 1), is: persist.ErrCorrupt},
		{name: "a JSON dataset from the parent build", file: parentJSON, is: persist.ErrCorrupt},
		{name: "a short JSON dataset", file: []byte(`{"stencils":[],"archs":[],"profiles":[],"instances":{}}` + "\n"), is: persist.ErrMagic},
		{name: "a checkpoint", file: checkpoint.Bytes(), as: &kindErr},
		{name: "a later version", file: bytes.Replace(file, []byte(`"version":1`), []byte(`"version":2`), 1), as: &versionErr},
		// The columns'.
		{name: "lying column count", file: tamper(func(p *fileParts) { p.cols = p.cols[:colInstParams] }, 'i', 0x80, 0x80, 0x80, 0x80, 0x01), is: persist.ErrCorrupt},
		{name: "0x7ff… in an instance time", file: tamper(func(p *fileParts) { p.cols[colInstTime].floats[0] = nan }), is: persist.ErrCorrupt},
		{name: "0x7ff… in a result time", file: tamper(func(p *fileParts) { p.cols[colResultTime].floats[0] = nan }), is: persist.ErrCorrupt},
		{name: "a float column where an int column is due", file: tamper(func(p *fileParts) { p.cols[colResultCrashed] = column{float: true, floats: make([]float64, 8)} }), is: persist.ErrCorrupt},
		{name: "a twelfth column", file: tamper(func(p *fileParts) {}, 'i', 0), is: persist.ErrCorrupt},
		{name: "an instance OC past a byte", file: tamper(func(p *fileParts) { p.cols[colInstOC].ints[0] = 256 }), is: persist.ErrCorrupt},
		// The dataset's.
		{name: "ragged instance columns", file: tamper(func(p *fileParts) { p.cols[colInstOC].ints = p.cols[colInstOC].ints[:7] }), says: "ragged instance columns"},
		{name: "ragged stencil column", file: tamper(func(p *fileParts) { p.cols[colInstStencil].ints = p.cols[colInstStencil].ints[:7] }), says: "ragged instance columns"},
		{name: "ragged result columns", file: tamper(func(p *fileParts) { p.cols[colResultTime].floats = p.cols[colResultTime].floats[1:] }), says: "ragged result columns"},
		{name: "a profile short", file: tamper(func(p *fileParts) { p.cols[colBestOC].ints = p.cols[colBestOC].ints[1:] }), says: "ragged result columns"},
		{name: "arch index out of range", file: tamper(func(p *fileParts) { p.cols[colInstArch].ints[0] = 1 }), says: "arch index 1 out of range"},
		{name: "arch index negative", file: tamper(func(p *fileParts) { p.cols[colInstArch].ints[3] = -1 }), says: "arch index -1 out of range"},
		{name: "params not ten per instance", file: tamper(func(p *fileParts) { p.cols[colInstParams].ints = p.cols[colInstParams].ints[:25] }), says: "ragged instance columns"},
		{name: "useSmem 2", file: tamper(func(p *fileParts) { p.cols[colInstParams].ints[7] = 2 }), says: "useSmem 2 out of range"},
		{name: "crashed flag 2", file: tamper(func(p *fileParts) { p.cols[colResultCrashed].ints[0] = 2 }), says: "crashed flag 2"},
		{name: "a crashed result with a time", file: tamper(func(p *fileParts) {
			p.cols[colResultCrashed].ints[0], p.cols[colResultTime].floats[0] = 1, math.Float64frombits(0xf3ffffff)
		}), says: "crashed result 0 has time"},
		{name: "an invalid instance OC", file: tamper(func(p *fileParts) { p.cols[colInstOC].ints[0] = 63 }), says: "invalid OC"},
		{name: "a stencil index past the corpus", file: tamper(func(p *fileParts) { p.cols[colInstStencil].ints[0] = 3 }), says: "references stencil 3"},
		{name: "a zero instance time", file: tamper(func(p *fileParts) { p.cols[colInstTime].floats[0] = 0 }), says: "non-positive time"},
		{name: "an edited label", file: tamper(func(p *fileParts) { p.cols[colBestTime].floats[0] *= 2 }), says: "its results say"},
		{name: "an unknown arch", file: frame(t, []byte(`{"stencils":[],"archs":["NoSuchGPU"]}`), nil), says: "NoSuchGPU"},
		{name: "stencil points not in triplets", file: frame(t, []byte(`{"stencils":[{"name":"s","dims":2,"points":[0,0]}],"archs":["V100"]}`), nil), says: "point coords"},
		{name: "an empty corpus", file: frame(t, []byte(`{}`), splitFile(t, file).section()), says: "ragged result columns"},
	} {
		d, err := profile.Read(bytes.NewReader(tc.file))
		switch {
		case err == nil:
			t.Errorf("%s: read back cleanly, %d instances", tc.name, len(d.Instances))
		case tc.is != nil && !errors.Is(err, tc.is):
			t.Errorf("%s: %v, want %v", tc.name, err, tc.is)
		case tc.as != nil && !errors.As(err, tc.as):
			t.Errorf("%s: %v, want %T", tc.name, err, tc.as)
		case tc.says != "" && !strings.Contains(err.Error(), tc.says):
			t.Errorf("%s: %v, want an error that says %q", tc.name, err, tc.says)
		}
	}
	if _, err := profile.Read(bytes.NewReader(file)); err != nil {
		t.Fatalf("the file the damage was done to: %v", err)
	}
}

// jsonRaw passes manifest bytes through persist.Write as they are.
func jsonRaw(manifest []byte) json.RawMessage { return manifest }
