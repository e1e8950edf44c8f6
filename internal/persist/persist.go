// Package persist implements the versioned, checksummed checkpoint
// envelope every trained-model artifact uses. The format is stdlib-only
// JSON in a frame: one short header line carrying a magic string, an
// artifact kind, a format version, the SHA-256 of the payload and its
// length in bytes, followed by exactly that many payload bytes. Corrupt,
// truncated, oversized, or wrong-version files fail loudly at read time —
// magic, kind and version are rejected from the header alone, before any
// payload byte is read, so a damaged checkpoint can never rehydrate into
// a silently-wrong predictor.
//
// Versioning policy: Version identifies the payload schema for a given
// Kind. Readers accept exactly the version they were built for; schema
// evolution bumps the version and (when needed) ships a migration reader.
// Unknown payload fields are ignored on read, so additive changes may
// keep the version; field renames, type changes, or semantic changes must
// bump it.
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
// the declared payload (the default preset's checkpoint is about 9 MB).
const (
	maxHeaderBytes  = 4 << 10
	maxPayloadBytes = 1 << 30
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
	Bytes int64 `json:"bytes"` // payload length; the file ends there
}

// checksum hashes payload bytes to the envelope's hex digest.
func checksum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
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

// Write marshals payload once, hashes it once and writes the header line
// followed by the payload bytes as marshalled.
func Write(w io.Writer, kind string, version int, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("persist: marshal %s payload: %w", kind, err)
	}
	head, err := json.Marshal(header{identity{Magic, kind, version, checksum(raw)}, int64(len(raw))})
	if err != nil {
		return fmt.Errorf("persist: marshal %s header: %w", kind, err)
	}
	if _, err := w.Write(append(head, '\n')); err != nil {
		return fmt.Errorf("persist: write %s header: %w", kind, err)
	}
	if _, err := w.Write(raw); err != nil {
		return fmt.Errorf("persist: write %s payload: %w", kind, err)
	}
	return nil
}

// Read decodes the header line, verifies magic, kind and version in that
// order, reads the declared payload once, verifies its checksum and
// unmarshals it into out. Every verification failure maps to a distinct
// error (ErrMagic, *KindError, *VersionError, ErrChecksum, ErrCorrupt) so
// callers and tests can tell the failure classes apart. Memory is bounded
// by the bytes the reader actually yields, never by the declared length
// alone, and bytes after the payload are corruption.
func Read(r io.Reader, kind string, version int, out any) error {
	br := bufio.NewReaderSize(r, maxHeaderBytes)
	line, err := br.ReadSlice('\n')
	if err != nil {
		// EOF before the newline, or a line longer than the buffer. A
		// version-1 checkpoint is one such line, identity first and the
		// payload inline: refuse it for what it is, not as garbage.
		var old identity
		if i := bytes.Index(line, []byte(`,"payload":`)); i > 0 && json.Unmarshal(append(line[:i:i], '}'), &old) == nil {
			if err := old.check(kind, version); err != nil {
				return err
			}
		}
		return fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if err := h.check(kind, version); err != nil {
		return err
	}
	if h.Bytes < 0 || h.Bytes > maxPayloadBytes {
		return fmt.Errorf("%w: header declares a %d-byte payload", ErrCorrupt, h.Bytes)
	}
	// Start small and let the buffer grow with what arrives; one byte
	// past the declared length is asked for to prove the file ends there.
	var buf bytes.Buffer
	buf.Grow(int(min(h.Bytes, 1<<20)) + bytes.MinRead)
	n, err := buf.ReadFrom(io.LimitReader(br, h.Bytes+1))
	if err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if n > h.Bytes {
		return fmt.Errorf("%w: bytes follow the declared %d-byte payload", ErrCorrupt, h.Bytes)
	}
	if n < h.Bytes {
		return fmt.Errorf("%w: header declares a %d-byte payload, reader yielded %d", ErrCorrupt, h.Bytes, n)
	}
	if checksum(buf.Bytes()) != h.Checksum {
		return ErrChecksum
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	return nil
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
