package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

const (
	testWALKind    = "test-journal"
	testWALVersion = 3
)

type walMeta struct {
	Seed  int64 `json:"seed"`
	Cells int   `json:"cells"`
}

type walCell struct {
	Index int     `json:"index"`
	Value float64 `json:"value"`
}

// openTestWAL opens/creates a log and fails the test on error.
func openTestWAL(t testing.TB, path string) (*WAL, *WALReplay) {
	t.Helper()
	w, replay, err := OpenWAL(path, testWALKind, testWALVersion, walMeta{Seed: 9, Cells: 4})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w, replay
}

// cellBytes is the payload the tests append for cell i.
func cellBytes(t testing.TB, i int) []byte {
	t.Helper()
	raw, err := json.Marshal(walCell{Index: i, Value: float64(i) * 1.5})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func appendCells(t testing.TB, w *WAL, idx ...int) {
	t.Helper()
	for _, i := range idx {
		if err := w.Append(cellBytes(t, i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

func decodeCells(t *testing.T, replay *WALReplay) []walCell {
	t.Helper()
	out := make([]walCell, len(replay.Records))
	for i, raw := range replay.Records {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	return out
}

// writtenWAL returns the bytes of a closed log holding the given cells.
func writtenWAL(t testing.TB, path string, idx ...int) []byte {
	t.Helper()
	w, _ := openTestWAL(t, path)
	appendCells(t, w, idx...)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWALRoundTrip appends, reopens, and replays every record plus the
// original meta.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, replay := openTestWAL(t, path)
	if len(replay.Records) != 0 || replay.TruncatedBytes != 0 {
		t.Fatalf("fresh log replayed %+v", replay)
	}
	appendCells(t, w, 0, 1, 2)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, replay2 := openTestWAL(t, path)
	defer w2.Close()
	var meta walMeta
	if err := json.Unmarshal(replay2.Meta, &meta); err != nil || meta.Seed != 9 || meta.Cells != 4 {
		t.Fatalf("meta %+v (err %v), want seed 9 cells 4", meta, err)
	}
	cells := decodeCells(t, replay2)
	if len(cells) != 3 || cells[2].Index != 2 || cells[2].Value != 3.0 {
		t.Fatalf("replayed %+v", cells)
	}
	if replay2.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", replay2.TruncatedBytes)
	}

	// Appending after a resume extends the same log.
	appendCells(t, w2, 3)
	w2.Close()
	_, replay3 := openTestWAL(t, path)
	if got := len(replay3.Records); got != 4 {
		t.Fatalf("after resumed append: %d records, want 4", got)
	}
}

// TestWALRecordLayout pins a record's bytes: uvarint length, the
// payload's SHA-256, the payload — nothing between records.
func TestWALRecordLayout(t *testing.T) {
	raw := writtenWAL(t, filepath.Join(t.TempDir(), "j.wal"), 0, 1)
	want := raw[: bytes.IndexByte(raw, '\n')+1 : bytes.IndexByte(raw, '\n')+1]
	for i := 0; i < 2; i++ {
		p := cellBytes(t, i)
		sum := sha256.Sum256(p)
		want = append(append(binary.AppendUvarint(want, uint64(len(p))), sum[:]...), p...)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("log is\n%q\nwant\n%q", raw, want)
	}
}

// TestWALTruncatedTail simulates a kill mid-append at every byte offset of
// the last record: the partial record is dropped and physically truncated,
// earlier records survive, and appending the lost record again restores
// the file byte for byte.
func TestWALTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	raw := writtenWAL(t, path, 0, 1, 2)
	two := len(writtenWAL(t, filepath.Join(t.TempDir(), "two.wal"), 0, 1))
	for cut := two + 1; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, replay := openTestWAL(t, path)
		if len(replay.Records) != 2 || replay.TruncatedBytes != int64(cut-two) {
			t.Fatalf("cut at %d: replayed %d records and dropped %d bytes, want 2 and %d", cut, len(replay.Records), replay.TruncatedBytes, cut-two)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(two) {
			t.Fatalf("cut at %d: file is %d bytes after tail truncation (%v), want %d", cut, st.Size(), err, two)
		}
		appendCells(t, w, 2)
		w.Close()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("cut at %d: re-appending the lost record did not restore the log (%v)", cut, err)
		}
	}
}

// TestWALCorruptRecord flips every byte of a middle record in turn —
// length, digest, payload: the damaged record plus everything after it is
// dropped, whichever byte it was, and the log stays usable.
func TestWALCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	raw := writtenWAL(t, path, 0, 1, 2, 3)
	one := len(writtenWAL(t, filepath.Join(t.TempDir(), "one.wal"), 0))
	two := len(writtenWAL(t, filepath.Join(t.TempDir(), "two.wal"), 0, 1))
	for at := one; at < two; at++ {
		damaged := append([]byte(nil), raw...)
		damaged[at] ^= 0x20
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		replay, err := ReadWAL(path, testWALKind, testWALVersion)
		if err != nil {
			t.Fatalf("byte %d: %v", at, err)
		}
		cells := decodeCells(t, replay)
		if len(cells) != 1 || cells[0].Index != 0 || replay.TruncatedBytes != int64(len(raw)-one) {
			t.Fatalf("byte %d: replayed %+v and dropped %d bytes, want only record 0 and %d", at, cells, replay.TruncatedBytes, len(raw)-one)
		}
	}

	// The log must stay usable: re-append the dropped tail and replay all.
	w2, _ := openTestWAL(t, path)
	appendCells(t, w2, 1, 2, 3)
	w2.Close()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("repair did not restore the log (%v)", err)
	}
}

// TestWALRecordLengthPastEnd: a record that declares more bytes than the
// file holds is a damaged tail, refused from its length alone.
func TestWALRecordLengthPastEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	raw := writtenWAL(t, path, 0)
	for name, tail := range map[string][]byte{
		"one byte more than remains": append(binary.AppendUvarint(nil, 8), make([]byte, sha256.Size+7)...),
		"an exabyte":                 append(binary.AppendUvarint(nil, 1<<60), "xyz"...),
		"no room for the digest":     binary.AppendUvarint(nil, 0),
		"padded length":              append([]byte{0x80, 0x00}, make([]byte, sha256.Size)...),
		"length cut short":           {0xff},
	} {
		if err := os.WriteFile(path, append(append([]byte(nil), raw...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay, err := ReadWAL(path, testWALKind, testWALVersion)
		runtime.ReadMemStats(&after)
		if err != nil || len(replay.Records) != 1 || replay.TruncatedBytes != int64(len(tail)) {
			t.Errorf("%s: %d records, %d bytes dropped, err %v; want 1 record and %d bytes", name, len(replay.Records), replay.TruncatedBytes, err, len(tail))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: replay allocated %d bytes", name, grew)
		}
	}
}

// tornFile fails its failAt-th write or sync, a write after half its
// bytes have reached the file.
type tornFile struct {
	*os.File
	calls, failAt          int
	failSync, failTruncate bool
}

var errTorn = errors.New("injected wal fault")

func (f *tornFile) Write(p []byte) (int, error) {
	if f.calls++; f.calls == f.failAt && !f.failSync {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errTorn
	}
	return f.File.Write(p)
}

func (f *tornFile) Sync() error {
	if f.calls == f.failAt && f.failSync {
		return errTorn
	}
	return f.File.Sync()
}

func (f *tornFile) Truncate(size int64) error {
	if f.failTruncate {
		return errTorn
	}
	return f.File.Truncate(size)
}

// TestWALAppendErrorIsSticky: the second of five concurrent appends is
// torn. At the parent commit the three behind it were written, synced and
// acknowledged after the partial record, where replay never reaches them.
// Now each is refused with the first error, so replay holds exactly what
// was acknowledged.
func TestWALAppendErrorIsSticky(t *testing.T) {
	for name, double := range map[string]tornFile{
		"short write":                 {failAt: 2},
		"short write, truncate fails": {failAt: 2, failTruncate: true},
		"failed sync":                 {failAt: 2, failSync: true},
		"failed sync, truncate fails": {failAt: 2, failSync: true, failTruncate: true},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.wal")
			w, _ := openTestWAL(t, path)
			double.File = w.f.(*os.File)
			w.f = &double

			var wg sync.WaitGroup
			errs := make([]error, 5)
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = w.Append(cellBytes(t, i))
				}()
			}
			wg.Wait()
			w.Close()

			acked := map[int]bool{}
			for i, err := range errs {
				if err == nil {
					acked[i] = true
				} else if !errors.Is(err, errTorn) {
					t.Errorf("append %d failed with %v, want the first error", i, err)
				}
			}
			if len(acked) != 1 {
				t.Fatalf("%d appends acknowledged, want the one before the fault", len(acked))
			}
			replay, err := ReadWAL(path, testWALKind, testWALVersion)
			if err != nil {
				t.Fatal(err)
			}
			// A record whose sync failed and could not be cut away is whole
			// in the file: unacknowledged, and harmless to replay.
			spare := 0
			if double.failSync && double.failTruncate {
				spare = 1
			}
			cells := decodeCells(t, replay)
			if len(cells) != 1+spare || !acked[cells[0].Index] {
				t.Fatalf("replayed %+v, acknowledged %v", cells, acked)
			}
			if torn := !double.failSync && double.failTruncate; (replay.TruncatedBytes > 0) != torn {
				t.Fatalf("replay dropped %d bytes, torn record left in the file: %v", replay.TruncatedBytes, torn)
			}
		})
	}
}

// TestWALVersionMismatch rejects logs written by another format version
// with the persist version error class.
func TestWALVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _ := openTestWAL(t, path)
	w.Close()

	_, _, err := OpenWAL(path, testWALKind, testWALVersion+1, walMeta{})
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	}
	_, _, err = OpenWAL(path, "other-kind", testWALVersion, walMeta{})
	var ke *KindError
	if !errors.As(err, &ke) {
		t.Fatalf("got %v, want *KindError", err)
	}
}

// TestWALHeaderCorrupt rejects a log whose header line is damaged.
func TestWALHeaderCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.WriteFile(path, []byte(`{"magic":"stencilmart-checkpo`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenWAL(path, testWALKind, testWALVersion, walMeta{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// FuzzReadWAL replays arbitrary bytes behind a valid header. Records are
// never an error — damage is a tail to drop — so replay returns cleanly,
// accounts for every byte, hands out only records whose digest holds,
// allocates nothing a declared length asks for, and what it kept is the
// good prefix byte for byte: one spelling per record.
func FuzzReadWAL(f *testing.F) {
	raw := writtenWAL(f, filepath.Join(f.TempDir(), "j.wal"), 0, 1, 2)
	head := raw[:bytes.IndexByte(raw, '\n')+1]
	records := raw[len(head):]
	flipped := append([]byte(nil), records...)
	flipped[len(records)/2] ^= 0x01
	f.Add(records)
	f.Add([]byte{})
	f.Add(records[:len(records)-5])                                     // cut mid-record
	f.Add(flipped)                                                      // flipped byte in the middle record
	f.Add(append(binary.AppendUvarint(nil, 1<<62), records...))         // a length no file holds
	f.Add(append([]byte{0x80, 0x00}, records...))                       // padded length
	f.Add(append(append([]byte(nil), records...), 0xff, 0xff, 0xff))    // length cut short
	f.Add(append(append([]byte(nil), records...), make([]byte, 64)...)) // zero-filled tail
	f.Add(append(append([]byte(nil), records...), records...))          // every record twice
	f.Fuzz(func(t *testing.T, data []byte) {
		file := append(append([]byte(nil), head...), data...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay, good, err := replayWAL(file, testWALKind, testWALVersion)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("records behind a valid header failed the replay: %v", err)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+4*len(file)); grew > bound {
			t.Fatalf("replay allocated %d bytes for a %d-byte log (bound %d)", grew, len(file), bound)
		}
		if good+replay.TruncatedBytes != int64(len(file)) {
			t.Fatalf("good prefix %d + dropped tail %d != %d bytes", good, replay.TruncatedBytes, len(file))
		}
		again := append([]byte(nil), head...)
		for _, p := range replay.Records {
			sum := sha256.Sum256(p)
			again = append(append(binary.AppendUvarint(again, uint64(len(p))), sum[:]...), p...)
		}
		if !bytes.Equal(again, file[:good]) {
			t.Fatalf("replayed records re-encode as %x, the good prefix is %x", again, file[:good])
		}
	})
}
