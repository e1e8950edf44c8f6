// Package persist implements the versioned, checksummed checkpoint
// envelope every trained-model artifact uses. The format is stdlib-only,
// a frame: one short JSON header line carrying a magic string, an
// artifact kind, a format version, the SHA-256 of the payload, its length
// in bytes and how many of them are the column section, followed by
// exactly that many payload bytes — a JSON manifest (configuration, names,
// shapes), then the binary Columns every bulk number lives in. Corrupt,
// truncated, oversized, or wrong-version files fail loudly at read time —
// magic, kind and version are rejected from the header alone, before any
// payload byte is read, so a damaged checkpoint can never rehydrate into
// a silently-wrong predictor.
//
// Versioning policy: Version identifies the payload schema for a given
// Kind: the manifest's fields and the order of the columns. Readers
// accept exactly the version they were built for. Unknown manifest fields
// are ignored on read, so additive changes there may keep the version;
// field renames, type changes, semantic changes and any change to the
// columns or their order must bump it.
package persist

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a StencilMART checkpoint envelope.
const Magic = "stencilmart-checkpoint"

// What Read buffers at most, whatever the file claims: the header line and
// the declared payload (the default preset's checkpoint is about 4 MB).
// The payload buffer starts at payloadChunk and, each time the reader has
// filled it, grows eightfold up to the declared length: an honest 4 MB
// file costs one copy of its first megabyte, a lying header at most eight
// times what the file really holds.
const (
	maxHeaderBytes  = 4 << 10
	maxPayloadBytes = 1 << 30
	payloadChunk    = 1 << 20
)

// Sentinel errors for the failure classes callers branch on.
var (
	// ErrMagic marks a file that is not a StencilMART checkpoint.
	ErrMagic = errors.New("persist: bad magic (not a stencilmart checkpoint)")
	// ErrChecksum marks a payload whose bytes do not hash to the recorded
	// checksum (bit rot, hand edits).
	ErrChecksum = errors.New("persist: payload checksum mismatch")
	// ErrCorrupt marks a file whose frame or payload does not decode:
	// garbage, a truncated header or payload, a payload length that is
	// negative, over maxPayloadBytes or not where the file ends.
	ErrCorrupt = errors.New("persist: corrupt or truncated checkpoint")
)

// VersionError reports a format-version mismatch.
type VersionError struct {
	Kind      string
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("persist: %s checkpoint version %d, this build reads version %d", e.Kind, e.Got, e.Want)
}

// KindError reports an artifact-kind mismatch (e.g. a dataset checkpoint
// fed to the framework loader).
type KindError struct {
	Got, Want string
}

func (e *KindError) Error() string {
	return fmt.Sprintf("persist: checkpoint holds %q, want %q", e.Got, e.Want)
}

// identity is what a checkpoint header and a WAL header share: the fields
// a file is refused by, and the digest of the payload that follows.
type identity struct {
	Magic    string `json:"magic"`
	Kind     string `json:"kind"`
	Version  int    `json:"version"`
	Checksum string `json:"checksum"` // sha256 hex of the payload bytes
}

// header is the first line of a checkpoint: everything needed to refuse
// the file, or to bound the read, before the payload is touched.
type header struct {
	identity
	Bytes   int64 `json:"bytes"`   // payload length, manifest and columns; the file ends there
	Columns int64 `json:"columns"` // how many of them, at the end, are the column section
}

// checksum hashes payload bytes to the envelope's hex digest.
func checksum(parts ...[]byte) string {
	h := sha256.New()
	for _, b := range parts {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check verifies magic, kind and version, in that order.
func (id identity) check(kind string, version int) error {
	if id.Magic != Magic {
		return ErrMagic
	}
	if id.Kind != kind {
		return &KindError{Got: id.Kind, Want: kind}
	}
	if id.Version != version {
		return &VersionError{Kind: kind, Got: id.Version, Want: version}
	}
	return nil
}

// Write marshals manifest once, hashes it and the columns once and writes
// the header line, the manifest as marshalled and the column section.
func Write(w io.Writer, kind string, version int, manifest any, cols *Columns) error {
	if cols.err != nil {
		return fmt.Errorf("persist: %s columns: %w", kind, cols.err)
	}
	raw, err := json.Marshal(manifest)
	if err != nil {
		return fmt.Errorf("persist: marshal %s manifest: %w", kind, err)
	}
	payload := append(append([][]byte{raw}, cols.full...), cols.b)
	var colBytes int64
	for _, chunk := range payload[1:] {
		colBytes += int64(len(chunk))
	}
	head, err := json.Marshal(header{identity{Magic, kind, version, checksum(payload...)}, int64(len(raw)) + colBytes, colBytes})
	if err != nil {
		return fmt.Errorf("persist: marshal %s header: %w", kind, err)
	}
	for _, part := range append([][]byte{append(head, '\n')}, payload...) {
		if _, err := w.Write(part); err != nil {
			return fmt.Errorf("persist: write %s checkpoint: %w", kind, err)
		}
	}
	return nil
}

// Read decodes the header line, verifies magic, kind and version in that
// order, reads the declared payload once, verifies its checksum,
// unmarshals the manifest into out and returns the column section for the
// caller to read — from the payload buffer, not a copy. Every
// verification failure maps to a distinct error (ErrMagic, *KindError,
// *VersionError, ErrChecksum, ErrCorrupt) so callers and tests can tell
// the failure classes apart. Memory is bounded by the bytes the reader
// actually yields, never by the declared length alone, and bytes after
// the payload are corruption.
func Read(r io.Reader, kind string, version int, out any) (*Columns, error) {
	br := bufio.NewReaderSize(r, maxHeaderBytes)
	line, err := br.ReadSlice('\n')
	if err != nil {
		// EOF before the newline, or a line longer than the buffer. A
		// version-1 checkpoint is one such line, identity first and the
		// payload inline: refuse it for what it is, not as garbage.
		var old identity
		if i := bytes.Index(line, []byte(`,"payload":`)); i > 0 && json.Unmarshal(append(line[:i:i], '}'), &old) == nil {
			if err := old.check(kind, version); err != nil {
				return nil, err
			}
		}
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if err := h.check(kind, version); err != nil {
		return nil, err
	}
	if h.Bytes < 0 || h.Bytes > maxPayloadBytes || h.Columns < 0 || h.Columns > h.Bytes {
		return nil, fmt.Errorf("%w: header declares a %d-byte payload with %d bytes of columns", ErrCorrupt, h.Bytes, h.Columns)
	}
	// One byte past the declared length is asked for, to prove the file
	// ends there. The buffer grows with what has arrived, by copying into
	// the next size up: nothing is zero-filled only to be read over.
	limit := int(h.Bytes) + 1
	buf := make([]byte, 0, min(limit, payloadChunk))
	for len(buf) < limit {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(limit, 8*cap(buf))), buf...)
		}
		n, err := br.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
		}
	}
	if len(buf) == limit {
		return nil, fmt.Errorf("%w: bytes follow the declared %d-byte payload", ErrCorrupt, h.Bytes)
	}
	if int64(len(buf)) < h.Bytes {
		return nil, fmt.Errorf("%w: header declares a %d-byte payload, reader yielded %d", ErrCorrupt, h.Bytes, len(buf))
	}
	if checksum(buf) != h.Checksum {
		return nil, ErrChecksum
	}
	manifest := buf[:h.Bytes-h.Columns]
	if err := json.Unmarshal(manifest, out); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	return ColumnsOf(buf[len(manifest):]), nil
}

// WriteFile writes a file atomically: write's output lands in a temporary
// sibling first and renames into place, so a crash mid-write never leaves
// a half-written checkpoint at the destination.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
