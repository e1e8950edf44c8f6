package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

type payload struct {
	Name  string    `json:"name"`
	Vals  []float64 `json:"vals"`
	Count int       `json:"count"`
}

func testPayload() payload {
	return payload{Name: "probe", Vals: []float64{1.5, -2.25, 0.0078125}, Count: 3}
}

// testColumns is the column section the test frames carry.
func testColumns() *Columns {
	var c Columns
	c.AppendFloats([]float64{0.5, -1e300})
	AppendInts(&c, []int32{-1, 0, 300})
	return &c
}

func encode(t testing.TB, kind string, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, kind, version, testPayload(), testColumns()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// read is Read for the tests that only care how it fails.
func read(r io.Reader, kind string, version int, out any) error {
	_, err := Read(r, kind, version, out)
	return err
}

func TestRoundTrip(t *testing.T) {
	raw := encode(t, "test-kind", 3)
	var got payload
	cols, err := Read(bytes.NewReader(raw), "test-kind", 3, &got)
	if err != nil {
		t.Fatal(err)
	}
	if f, i := cols.ReadFloats(), ReadInts[int32](cols); cols.End() != nil || len(f) != 2 || f[1] != -1e300 || len(i) != 3 || i[0] != -1 || i[2] != 300 {
		t.Fatalf("columns read back as %v, %v, %v", f, i, cols.End())
	}
	want := testPayload()
	if got.Name != want.Name || got.Count != want.Count || len(got.Vals) != len(want.Vals) {
		t.Fatalf("round trip got %+v, want %+v", got, want)
	}
	for i := range want.Vals {
		if got.Vals[i] != want.Vals[i] {
			t.Fatalf("val %d: %g != %g", i, got.Vals[i], want.Vals[i])
		}
	}
}

func TestTruncatedFileFails(t *testing.T) {
	raw := encode(t, "test-kind", 1)
	for _, cut := range []int{0, 1, len(raw) / 2, len(raw) - 2} {
		var got payload
		err := read(bytes.NewReader(raw[:cut]), "test-kind", 1, &got)
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
	}
}

func TestBadMagicFails(t *testing.T) {
	raw := bytes.Replace(encode(t, "test-kind", 1), []byte(Magic), []byte("not-a-checkpoint-nope"), 1)
	var got payload
	if err := read(bytes.NewReader(raw), "test-kind", 1, &got); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic gave %v, want ErrMagic", err)
	}
}

func TestWrongVersionFails(t *testing.T) {
	raw := encode(t, "test-kind", 1)
	var got payload
	err := read(bytes.NewReader(raw), "test-kind", 2, &got)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("version mismatch gave %v, want *VersionError", err)
	}
	if ve.Got != 1 || ve.Want != 2 || ve.Kind != "test-kind" {
		t.Fatalf("version error fields %+v", ve)
	}
}

func TestWrongKindFails(t *testing.T) {
	raw := encode(t, "dataset", 1)
	var got payload
	err := read(bytes.NewReader(raw), "framework", 1, &got)
	var ke *KindError
	if !errors.As(err, &ke) {
		t.Fatalf("kind mismatch gave %v, want *KindError", err)
	}
	if ke.Got != "dataset" || ke.Want != "framework" {
		t.Fatalf("kind error fields %+v", ke)
	}
}

func TestTamperedPayloadFailsChecksum(t *testing.T) {
	raw := encode(t, "test-kind", 1)
	// Flip a value inside the payload without touching the envelope: the
	// recorded checksum no longer matches.
	tampered := bytes.Replace(raw, []byte(`"count":3`), []byte(`"count":4`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper target not found")
	}
	var got payload
	if err := read(bytes.NewReader(tampered), "test-kind", 1, &got); !errors.Is(err, ErrChecksum) {
		t.Fatalf("tampered payload gave %v, want ErrChecksum", err)
	}
}

func TestGarbageFailsCorrupt(t *testing.T) {
	for _, data := range [][]byte{[]byte("not json at all"), []byte(`[1,2,3]` + "garbage")} {
		var got payload
		err := read(bytes.NewReader(data), "test-kind", 1, &got)
		if err == nil {
			t.Fatalf("garbage %q accepted", data)
		}
	}
	var got payload
	if err := read(strings.NewReader("{{{"), "test-kind", 1, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unparsable envelope gave %v, want ErrCorrupt", err)
	}
}

func TestPayloadTypeMismatchFails(t *testing.T) {
	// A well-framed, correctly checksummed payload that does not match the
	// target type must fail as corrupt, not partially populate.
	var buf bytes.Buffer
	if err := Write(&buf, "test-kind", 1, json.RawMessage(`{"count":"not-a-number"}`), &Columns{}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := read(&buf, "test-kind", 1, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("type mismatch gave %v, want ErrCorrupt", err)
	}
}

// reframe rewrites one of the header's two declared lengths ("bytes" or
// "columns"), leaving the payload bytes and checksum alone.
func reframe(t testing.TB, raw []byte, field, declared string) []byte {
	t.Helper()
	nl := bytes.IndexByte(raw, '\n')
	var h header
	if err := json.Unmarshal(raw[:nl], &h); err != nil {
		t.Fatal(err)
	}
	was := map[string]int64{"bytes": h.Bytes, "columns": h.Columns}[field]
	out := bytes.Replace(raw, []byte(fmt.Sprintf(`"%s":%d`, field, was)), []byte(fmt.Sprintf(`"%s":%s`, field, declared)), 1)
	if bytes.Equal(out, raw) {
		t.Fatalf("declared %s not found in header", field)
	}
	return out
}

// TestFrameBoundsAreCorrupt pins the frame's own checks: nothing may
// follow the declared payload, the declared length must be sane and
// honest, and the header line is short. Each failed at the parent commit,
// where the decoder stopped after the first JSON value and buffered
// whatever it was given.
func TestFrameBoundsAreCorrupt(t *testing.T) {
	raw := encode(t, "test-kind", 1)
	cases := map[string][]byte{
		"trailing garbage":  append(append([]byte(nil), raw...), "GARBAGE{{{"...),
		"trailing newline":  append(append([]byte(nil), raw...), '\n'),
		"negative length":   reframe(t, raw, "bytes", "-1"),
		"length over cap":   reframe(t, raw, "bytes", fmt.Sprint(int64(maxPayloadBytes)+1)),
		"length past EOF":   reframe(t, raw, "bytes", fmt.Sprint(maxPayloadBytes)),
		"length too short":  reframe(t, raw, "bytes", "5"),
		"fractional length": reframe(t, raw, "bytes", "1.5"),
		// The column section is the payload's tail: it cannot be longer
		// than the payload, and one that starts inside the manifest leaves
		// a manifest that no longer parses.
		"negative columns":      reframe(t, raw, "columns", "-1"),
		"columns over payload":  reframe(t, raw, "columns", fmt.Sprint(len(raw))),
		"columns into manifest": reframe(t, raw, "columns", fmt.Sprint(len(testColumns().Bytes())+3)),
		"long header":           append(bytes.Repeat([]byte(" "), maxHeaderBytes), raw...),
		"header only":           raw[:bytes.IndexByte(raw, '\n')+1],
	}
	for name, data := range cases {
		var got payload
		if err := read(bytes.NewReader(data), "test-kind", 1, &got); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s gave %v, want ErrCorrupt", name, err)
		}
	}
	// A header that lies about a gigabyte must not cost a gigabyte: memory
	// follows the bytes that arrive.
	lying := reframe(t, raw, "bytes", fmt.Sprint(maxPayloadBytes))
	var got payload
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = read(bytes.NewReader(lying), "test-kind", 1, &got)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("lying header made Read allocate %d bytes for a %d-byte file", grew, len(lying))
	}
}

// TestHeaderRejectsBeforePayload: magic, kind and version are refused
// from the header line alone — the payload is never read.
func TestHeaderRejectsBeforePayload(t *testing.T) {
	raw := encode(t, "test-kind", 1)
	head := raw[:bytes.IndexByte(raw, '\n')+1]
	var got payload
	var ve *VersionError
	if err := read(io.MultiReader(bytes.NewReader(head), failReader{t}), "test-kind", 2, &got); !errors.As(err, &ve) {
		t.Fatalf("version mismatch gave %v, want *VersionError", err)
	}
	var ke *KindError
	if err := read(io.MultiReader(bytes.NewReader(head), failReader{t}), "other", 1, &got); !errors.As(err, &ke) {
		t.Fatalf("kind mismatch gave %v, want *KindError", err)
	}
}

// TestVersion2HeaderRefusedByVersion: a version-2 file is the same frame
// without a column section. Its header line — this one is the parent
// commit's `train` output on a `profile -seed 5` dataset, byte for byte — is refused as the wrong version before
// a payload byte is read; no reader for it exists.
func TestVersion2HeaderRefusedByVersion(t *testing.T) {
	const v2 = `{"magic":"stencilmart-checkpoint","kind":"stencilmart-framework","version":2,"checksum":"92ce9597a518ac06fe4405efdf4f17650e0ec380c35851dba2f947f38ac37037","bytes":8600287}` + "\n"
	var got payload
	var ve *VersionError
	err := read(io.MultiReader(strings.NewReader(v2), failReader{t}), "stencilmart-framework", 3, &got)
	if !errors.As(err, &ve) || ve.Got != 2 || ve.Want != 3 {
		t.Fatalf("version-2 header gave %v, want *VersionError 2 -> 3", err)
	}
}

// TestVersion1FileRefusedByVersion: the pre-framing format was a single
// JSON object with the payload inline. Such a file is not read, but it is
// refused as the wrong version (or kind), not as garbage.
func TestVersion1FileRefusedByVersion(t *testing.T) {
	v1 := fmt.Sprintf(`{"magic":%q,"kind":"test-kind","version":1,"checksum":"00","payload":{"name":%q}}`+"\n",
		Magic, strings.Repeat("x", 2*maxHeaderBytes))
	var got payload
	var ve *VersionError
	if err := read(strings.NewReader(v1), "test-kind", 2, &got); !errors.As(err, &ve) || ve.Got != 1 || ve.Want != 2 {
		t.Fatalf("version-1 file gave %v, want *VersionError 1 -> 2", err)
	}
	var ke *KindError
	if err := read(strings.NewReader(v1), "other-kind", 2, &got); !errors.As(err, &ke) {
		t.Fatalf("version-1 file of another kind gave %v, want *KindError", err)
	}
	if err := read(strings.NewReader(v1), "test-kind", 1, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 layout claiming the current version gave %v, want ErrCorrupt", err)
	}
}

type failReader struct{ t *testing.T }

func (f failReader) Read([]byte) (int, error) {
	f.t.Error("payload read before the header was accepted")
	return 0, io.EOF
}

func TestWriteFileAtomicAndReadable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "probe.ckpt")
	if err := WriteFile(path, func(w io.Writer) error { return Write(w, "test-kind", 1, testPayload(), testColumns()) }); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got payload
	if err := read(f, "test-kind", 1, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "probe" || got.Count != 3 {
		t.Fatalf("file round trip got %+v", got)
	}
	// A failed write leaves neither the destination nor a temporary behind.
	failed := errors.New("disk on fire")
	if err := WriteFile(filepath.Join(dir, "never.ckpt"), func(io.Writer) error { return failed }); !errors.Is(err, failed) {
		t.Fatalf("failed write gave %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d directory entries after WriteFile, want 1", len(entries))
	}
}
