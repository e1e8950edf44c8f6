package persist

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// typedReadError reports whether err is one of the five failure classes
// Read promises.
func typedReadError(err error) bool {
	var ke *KindError
	var ve *VersionError
	return errors.Is(err, ErrMagic) || errors.Is(err, ErrChecksum) || errors.Is(err, ErrCorrupt) || errors.As(err, &ke) || errors.As(err, &ve)
}

// FuzzPersistRead feeds arbitrary bytes to Read and reads every column of
// what it accepts. Whatever the bytes are, Read returns nil or one of its
// typed errors and the columns read or fail as ErrCorrupt — never a
// panic — memory follows the input's length and not what a header or a
// column count claims, and what reads back survives a Write → Read round
// trip unchanged, the column section byte for byte.
func FuzzPersistRead(f *testing.F) {
	raw := encode(f, "test-kind", 1)
	nl := bytes.IndexByte(raw, '\n')
	manifest := len(raw) - len(testColumns().Bytes())
	flipped := append([]byte(nil), raw...)
	flipped[manifest-3] ^= 0x01
	// reframed replaces the column section and frames the result afresh,
	// so the damage gets past the checksum to the column reader.
	reframed := func(cols ...byte) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, "test-kind", 1, testPayload(), ColumnsOf(cols)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	flippedColumn := append([]byte(nil), raw...)
	flippedColumn[len(raw)-2] ^= 0x40
	f.Add(raw)
	f.Add(raw[:nl/2])                                                     // truncated header
	f.Add(raw[:nl+1+(len(raw)-nl)/2])                                     // truncated payload
	f.Add(flipped)                                                        // flipped payload byte
	f.Add(bytes.Replace(raw, []byte(`"bytes":`), []byte(`"bytes":9`), 1)) // lying length
	f.Add(append(append([]byte(nil), raw...), "GARBAGE{{{"...))           // trailing bytes
	f.Add(bytes.Replace(raw, []byte(`"version":1`), []byte(`"version":7`), 1))
	f.Add(bytes.Replace(raw, []byte(Magic), []byte("tarball"), 1))
	f.Add(reframe(f, raw, "columns", "9"))                // lying column-section length
	f.Add(reframed('f', 0xff, 0xff, 0xff, 0x7f, 1, 2, 3)) // lying column count
	f.Add(reframed('i', 3, 2, 0x80))                      // column section cut mid-varint
	f.Add(reframed('i', 1, 0x80, 0x00))                   // padded varint
	f.Add(reframed('f', 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f)) // NaN bits
	f.Add(flippedColumn)                                  // flipped column byte
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got payload
		cols, err := Read(bytes.NewReader(data), "test-kind", 1, &got)
		var section, again Columns
		if err == nil {
			section = *cols
			for len(cols.Bytes()) > 0 && cols.Err() == nil {
				if cols.Bytes()[0] == tagFloats {
					again.AppendFloats(cols.ReadFloats())
				} else {
					AppendInts(&again, ReadInts[int32](cols))
				}
			}
		}
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+64*len(data)); grew > bound {
			t.Fatalf("Read allocated %d bytes for a %d-byte input (bound %d)", grew, len(data), bound)
		}
		if err != nil {
			if !typedReadError(err) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if err := cols.Err(); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("column read failed with %v, want ErrCorrupt", err)
			}
			return
		}
		if !bytes.Equal(again.Bytes(), section.Bytes()) {
			t.Fatalf("columns %x re-encode as %x", section.Bytes(), again.Bytes())
		}
		var buf bytes.Buffer
		if err := Write(&buf, "test-kind", 1, got, &again); err != nil {
			t.Fatalf("Write of an accepted payload: %v", err)
		}
		var reread payload
		back, err := Read(&buf, "test-kind", 1, &reread)
		if err != nil || !reflect.DeepEqual(got, reread) || !bytes.Equal(back.Bytes(), section.Bytes()) {
			t.Fatalf("accepted payload %+v re-read as %+v, %v", got, reread, err)
		}
	})
}
