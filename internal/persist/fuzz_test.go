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

// FuzzPersistRead feeds arbitrary bytes to Read. Whatever the bytes are,
// Read returns nil or one of its typed errors — never a panic — its
// memory follows the input's length and not what a header claims, and
// what it accepts survives a Write → Read round trip unchanged.
func FuzzPersistRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, "test-kind", 1, testPayload()); err != nil {
		f.Fatal(err)
	}
	raw := valid.Bytes()
	nl := bytes.IndexByte(raw, '\n')
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-3] ^= 0x01
	f.Add(raw)
	f.Add(raw[:nl/2])                                                     // truncated header
	f.Add(raw[:nl+1+(len(raw)-nl)/2])                                     // truncated payload
	f.Add(flipped)                                                        // flipped payload byte
	f.Add(bytes.Replace(raw, []byte(`"bytes":`), []byte(`"bytes":9`), 1)) // lying length
	f.Add(append(append([]byte(nil), raw...), "GARBAGE{{{"...))           // trailing bytes
	f.Add(bytes.Replace(raw, []byte(`"version":1`), []byte(`"version":7`), 1))
	f.Add(bytes.Replace(raw, []byte(Magic), []byte("tarball"), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got payload
		err := Read(bytes.NewReader(data), "test-kind", 1, &got)
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
		var buf bytes.Buffer
		if err := Write(&buf, "test-kind", 1, got); err != nil {
			t.Fatalf("Write of an accepted payload: %v", err)
		}
		var again payload
		if err := Read(&buf, "test-kind", 1, &again); err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("accepted payload %+v re-read as %+v, %v", got, again, err)
		}
	})
}
