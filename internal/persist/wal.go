package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// This file implements the append-only write-ahead log the resumable
// profiling journal rides on. The format is one JSON header line, then
// binary records laid end to end:
//
//	header line: {"magic", "kind", "version", "checksum", "payload": meta}
//	record:      uvarint length | sha-256 of the payload | length payload bytes
//
// The header carries the checkpoint identity, so magic/kind/version
// verification and its error classes are shared with checkpoints. Each
// record carries its own payload checksum and is appended with one Write
// call, so a crash mid-append leaves at most one partial final record: a
// length that runs past the end of the file, or bytes that do not hash to
// the digest before them. Replay verifies records in order and stops at
// the first damaged one, reporting the byte offset of the good prefix —
// the caller truncates there and re-does only the damaged tail. A record
// has no terminator to resynchronise on: everything behind a damaged
// record is part of the tail. The journal's only remaining user is
// bench/, so this file stays only for bench/, ROADMAP item 22.

// walHeader is the log's first line: the checkpoint identity with the
// meta payload inline, so the whole header stays one line.
type walHeader struct {
	identity
	Payload json.RawMessage `json:"payload"`
}

// WALReplay is what OpenWAL recovered from an existing log.
type WALReplay struct {
	// Meta is the header payload exactly as first written.
	Meta json.RawMessage
	// Records holds every intact record payload in append order; they
	// share the one buffer the log was read into.
	Records [][]byte
	// TruncatedBytes counts bytes dropped from a damaged tail (0 for a
	// clean log).
	TruncatedBytes int64
}

// walFile is what a WAL asks of its file; tests substitute one that fails.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is an open, append-position write-ahead log. Append is safe for
// concurrent use.
type WAL struct {
	mu   sync.Mutex
	f    walFile
	size int64 // the header and every acknowledged record end here
	err  error // the first failed append; every later one is refused with it
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

	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	replay, good, err := replayWAL(raw, kind, version)
	if err != nil {
		return nil, nil, err
	}
	if replay.TruncatedBytes > 0 {
		if err := os.Truncate(path, good); err != nil {
			return nil, nil, fmt.Errorf("persist: truncate damaged wal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &WAL{f: f, size: good}, replay, nil
}

// ReadWAL replays the log at path without opening it for append and
// without truncating a damaged tail — the read-only path merge steps
// use to inspect shard journals they do not own. Header verification
// and record recovery match OpenWAL exactly; a damaged tail is reported
// in TruncatedBytes but left on disk.
func ReadWAL(path, kind string, version int) (*WALReplay, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	replay, _, err := replayWAL(raw, kind, version)
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
	line = append(line, '\n')
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &WAL{f: f, size: int64(len(line))}, &WALReplay{Meta: raw}, nil
}

// replayWAL verifies the header of a log's bytes and takes every intact
// record off them, returning the byte length of the good prefix. The
// records alias raw: nothing is allocated for a length a record declares.
func replayWAL(raw []byte, kind string, version int) (*WALReplay, int64, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		// A log without even a complete header line is corrupt outright.
		return nil, 0, fmt.Errorf("%w: wal header: truncated", ErrCorrupt)
	}
	var h walHeader
	if err := json.Unmarshal(raw[:nl], &h); err != nil {
		return nil, 0, fmt.Errorf("%w: wal header: %v", ErrCorrupt, err)
	}
	if err := h.check(kind, version); err != nil {
		return nil, 0, err
	}
	if checksum(h.Payload) != h.Checksum {
		return nil, 0, ErrChecksum
	}
	replay := &WALReplay{Meta: h.Payload}
	rest := raw[nl+1:]
	for len(rest) > 0 {
		n, w := uvarint(rest)
		// The declared length is held against the bytes that remain
		// before it is used for anything.
		if w <= 0 || n > uint64(len(rest)-w) || uint64(len(rest)-w)-n < sha256.Size {
			break
		}
		sum, payload := rest[w:w+sha256.Size], rest[w+sha256.Size:w+sha256.Size+int(n)]
		if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
			break
		}
		replay.Records = append(replay.Records, payload)
		rest = rest[w+sha256.Size+int(n):]
	}
	replay.TruncatedBytes = int64(len(rest))
	return replay, int64(len(raw) - len(rest)), nil
}

// Append appends payload as one checksummed record, synced to disk
// before returning — a record that Append acknowledged survives a kill.
// A failed write or sync may have left part of a record in the file, and
// replay drops everything behind a damaged record, so nothing may be
// acknowledged after it: the log is cut back to its last acknowledged
// record where the file allows, and this and every later Append return
// that first error.
func (w *WAL) Append(payload []byte) error {
	sum := sha256.Sum256(payload)
	rec := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(sum)+len(payload)), uint64(len(payload)))
	rec = append(append(rec, sum[:]...), payload...)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.Write(rec); err != nil {
		w.err = fmt.Errorf("persist: append wal record: %w", err)
	} else if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("persist: sync wal record: %w", err)
	}
	if w.err != nil {
		// Best effort: if the cut fails too, replay still stops at the
		// torn record, and no record is written behind it.
		_ = w.f.Truncate(w.size)
		return w.err
	}
	w.size += int64(len(rec))
	return nil
}

// Close releases the underlying file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
