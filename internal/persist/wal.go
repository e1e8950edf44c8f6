package persist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// This file implements the append-only write-ahead log the resumable
// profiling journal rides on. The format is line-oriented JSON:
//
//	header line: {"magic", "kind", "version", "checksum", "payload": meta}
//	record line: {"checksum": sha256(payload), "payload": {...}}
//
// The header carries the checkpoint identity, so magic/kind/version
// verification and its error classes are shared with checkpoints. Each
// record carries its own payload checksum; a record is appended with one
// Write call ending in '\n', so a crash mid-append leaves at most one
// partial final line.
// Replay verifies records in order and stops at the first damaged one,
// reporting the byte offset of the good prefix — the caller truncates
// there and re-does only the damaged tail.

// walHeader is the log's first line: the checkpoint identity with the
// meta payload inline, so the whole header stays one line.
type walHeader struct {
	identity
	Payload json.RawMessage `json:"payload"`
}

// walRecord frames one appended payload.
type walRecord struct {
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// WALReplay is what OpenWAL recovered from an existing log.
type WALReplay struct {
	// Meta is the header payload exactly as first written.
	Meta json.RawMessage
	// Records holds every intact record payload in append order.
	Records []json.RawMessage
	// TruncatedBytes counts bytes dropped from a damaged tail (0 for a
	// clean log).
	TruncatedBytes int64
}

// WAL is an open, append-position write-ahead log. Append is safe for
// concurrent use.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenWAL opens (or creates) the log at path. On creation the header is
// written with the given meta payload and the replay is empty. On an
// existing log the header's magic, kind, and version are verified
// (ErrMagic, *KindError, *VersionError, ErrCorrupt), intact records are
// replayed, and a damaged tail — a corrupt, tampered, or partially
// written suffix — is physically truncated away so appends continue from
// the last good record. Callers are responsible for comparing the
// replayed Meta against their own before trusting the records.
func OpenWAL(path, kind string, version int, meta any) (*WAL, *WALReplay, error) {
	st, err := os.Stat(path)
	exists := err == nil && st.Size() > 0
	if !exists {
		return createWAL(path, kind, version, meta)
	}

	replay, goodBytes, err := replayWAL(path, kind, version)
	if err != nil {
		return nil, nil, err
	}
	if replay.TruncatedBytes > 0 {
		if err := os.Truncate(path, goodBytes); err != nil {
			return nil, nil, fmt.Errorf("persist: truncate damaged wal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &WAL{f: f, path: path}, replay, nil
}

// ReadWAL replays the log at path without opening it for append and
// without truncating a damaged tail — the read-only path merge steps
// use to inspect shard journals they do not own. Header verification
// and record recovery match OpenWAL exactly; a damaged tail is reported
// in TruncatedBytes but left on disk.
func ReadWAL(path, kind string, version int) (*WALReplay, error) {
	replay, _, err := replayWAL(path, kind, version)
	return replay, err
}

// createWAL starts a fresh log with a header line.
func createWAL(path, kind string, version int, meta any) (*WAL, *WALReplay, error) {
	raw, err := json.Marshal(meta)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: marshal %s wal meta: %w", kind, err)
	}
	line, err := json.Marshal(walHeader{identity{Magic, kind, version, checksum(raw)}, raw})
	if err != nil {
		return nil, nil, fmt.Errorf("persist: frame %s wal header: %w", kind, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &WAL{f: f, path: path}, &WALReplay{Meta: raw}, nil
}

// replayWAL reads the header and every intact record, returning the byte
// length of the good prefix.
func replayWAL(path, kind string, version int) (*WALReplay, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	r := bufio.NewReader(f)
	header, err := r.ReadBytes('\n')
	if err != nil {
		// A log without even a complete header line is corrupt outright.
		return nil, 0, fmt.Errorf("%w: wal header: truncated", ErrCorrupt)
	}
	var h walHeader
	if err := json.Unmarshal(header, &h); err != nil {
		return nil, 0, fmt.Errorf("%w: wal header: %v", ErrCorrupt, err)
	}
	if err := h.check(kind, version); err != nil {
		return nil, 0, err
	}
	if checksum(h.Payload) != h.Checksum {
		return nil, 0, ErrChecksum
	}
	replay := &WALReplay{Meta: h.Payload}
	good := int64(len(header))

	for {
		line, err := r.ReadBytes('\n')
		if len(line) == 0 && err == io.EOF {
			return replay, good, nil
		}
		// err != nil here means EOF with a partial (unterminated) line.
		if err != nil || !intactRecord(line, replay) {
			tail := int64(len(line)) + remaining(r)
			replay.TruncatedBytes = tail
			return replay, good, nil
		}
		good += int64(len(line))
	}
}

// intactRecord decodes and checksum-verifies one record line, appending
// its payload to the replay on success.
func intactRecord(line []byte, replay *WALReplay) bool {
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return false
	}
	if len(rec.Payload) == 0 || checksum(rec.Payload) != rec.Checksum {
		return false
	}
	replay.Records = append(replay.Records, rec.Payload)
	return true
}

// remaining counts the bytes left unread after a damaged record: they are
// all part of the tail being dropped.
func remaining(r *bufio.Reader) int64 {
	n, _ := io.Copy(io.Discard, r)
	return n
}

// Append marshals payload and appends one checksummed record, synced to
// disk before returning — a record that Append acknowledged survives a
// kill.
func (w *WAL) Append(payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("persist: marshal wal record: %w", err)
	}
	line, err := json.Marshal(walRecord{Checksum: checksum(raw), Payload: raw})
	if err != nil {
		return fmt.Errorf("persist: frame wal record: %w", err)
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("persist: append wal record: %w", err)
	}
	return w.f.Sync()
}

// Close releases the underlying file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }
