package profile

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"stencilmart/internal/gpu"
	"stencilmart/internal/par"
	"stencilmart/internal/stencil"
)

// The collection journal is an append-only WAL of completed (stencil,
// architecture) cells. A killed or failed Collect loses at most its
// in-flight cells: rerunning against the same journal replays the
// completed ones and re-measures only what is missing. The WAL layer
// (internal/persist) detects corrupt or truncated tails and drops them,
// so damage costs exactly the damaged cells. Because every cell derives
// its rng from the profiler seed alone, a resumed collection assembles a
// dataset bitwise-identical to an uninterrupted run.
const (
	// JournalKind and JournalVersion frame the journal in the persist
	// envelope; version bumps whenever a cell's record (journalCell.encode)
	// or journalMeta change incompatibly. Version 1 spelled a cell as a
	// JSON object; it is refused from the header, not migrated.
	JournalKind    = "stencilmart-profile-journal"
	JournalVersion = 2
)

// ErrJournalMismatch reports a journal written by a different collection
// — another corpus, seed or search budget. Resuming it would splice
// incompatible measurements into one dataset, so the caller must delete
// the journal (or restore the matching configuration).
var ErrJournalMismatch = errors.New("profile: journal does not match this collection")

// journalMeta pins the collection identity a journal belongs to.
type journalMeta struct {
	Seed         int64  `json:"seed"`
	SamplesPerOC int    `json:"samples_per_oc"`
	Trials       int    `json:"trials"`
	Corpus       string `json:"corpus"` // sha256 of the stencil corpus + full arch specs
	Cells        int    `json:"cells"`
}

// journalCell is one completed cell.
type journalCell struct {
	Index     int
	Profile   Profile
	Instances []Instance
}

// cellSet accumulates replayed cells across one or more journals,
// keeping each cell's raw record bytes so duplicate indices can be
// compared bitwise.
type cellSet struct {
	stencils int
	archs    []gpu.Arch
	done     []*journalCell
	raw      [][]byte
}

func newCellSet(stencils int, archs []gpu.Arch) *cellSet {
	n := stencils * len(archs)
	return &cellSet{stencils: stencils, archs: archs, done: make([]*journalCell, n), raw: make([][]byte, n)}
}

// absorb decodes records into the set and returns how many previously
// unseen cells they contributed. A duplicate index is tolerated only
// when its record bytes are identical to the first occurrence —
// deterministic collection means an honestly re-measured cell (a
// re-dispatched shard, a doubly-appended record) reproduces the exact
// bytes, so divergence is corruption or a foreign journal, and
// last-write-wins would silently pick one of two conflicting
// measurements.
func (cs *cellSet) absorb(records [][]byte, source string) (fresh int, err error) {
	for _, raw := range records {
		c, err := decodeCell(raw, cs.stencils, cs.archs)
		if err != nil {
			return fresh, fmt.Errorf("%w: %s: journal record: %v", ErrJournalMismatch, source, err)
		}
		if prev := cs.raw[c.Index]; prev != nil {
			if !bytes.Equal(prev, raw) {
				return fresh, fmt.Errorf("%w: %s: divergent duplicate records for cell %d", ErrJournalMismatch, source, c.Index)
			}
			continue
		}
		cs.done[c.Index], cs.raw[c.Index] = c, raw
		fresh++
	}
	return fresh, nil
}

// missing lists the cell indices not yet absorbed, in ascending order.
func (cs *cellSet) missing() []int {
	var out []int
	for i := range cs.done {
		if cs.done[i] == nil {
			out = append(out, i)
		}
	}
	return out
}

// ResumeStats reports what CollectJournal recovered versus re-measured.
// It stays only for bench/, ROADMAP item 22.
type ResumeStats struct {
	// Cells is the total cell count of the collection.
	Cells int
	// Resumed cells were replayed from the journal.
	Resumed int
	// Measured cells were (re-)measured this run.
	Measured int
	// RepairedBytes counts journal bytes dropped from a damaged tail.
	RepairedBytes int64
}

// journalMeta computes this profiler+corpus identity. The corpus hash
// covers the full gpu.Arch specs, not just the names: two catalogs that
// share names but differ in any microarchitectural parameter measure
// different times, and resuming across them would silently splice
// incompatible measurements into one dataset.
func (p *Profiler) journalMeta(stencils []stencil.Stencil, archs []gpu.Arch) (journalMeta, error) {
	raw, err := json.Marshal(struct {
		Stencils []stencil.Stencil `json:"stencils"`
		Archs    []gpu.Arch        `json:"archs"`
	}{stencils, archs})
	if err != nil {
		return journalMeta{}, err
	}
	sum := sha256.Sum256(raw)
	return journalMeta{
		Seed:         p.Seed,
		SamplesPerOC: p.SamplesPerOC,
		Trials:       1, // always 1; the field stays so journals from earlier builds still resume
		Corpus:       hex.EncodeToString(sum[:]),
		Cells:        len(stencils) * len(archs),
	}, nil
}

// CollectJournal is Collect with crash resumption: completed cells are
// appended to the journal at path as they finish, and an existing
// journal's cells are replayed instead of re-measured. The assembled
// dataset is bitwise-identical to an uninterrupted Collect. On failure
// (cancellation, a non-finite time, a panic) the journal keeps every
// completed cell; rerun with the same arguments to resume. No command
// calls it: it stays only for bench/ (bench/collect.go,
// bench/layers_collect.go), ROADMAP item 22.
func (p *Profiler) CollectJournal(ctx context.Context, path string, stencils []stencil.Stencil, archs []gpu.Arch) (*Dataset, ResumeStats, error) {
	all := newCellSet(len(stencils), archs).missing() // every cell
	cells, st, err := p.collectInto(ctx, path, stencils, archs, all, nil)
	stats := ResumeStats{Cells: st.Assigned, Resumed: st.Resumed, Measured: st.Measured, RepairedBytes: st.RepairedBytes}
	if err != nil {
		return nil, stats, err
	}
	return assembleDataset(stencils, archs, cells.done, p.Workers), stats, nil
}

// assembleDataset lays completed cells into a dataset in cell-index
// order, whichever way they were collected, so in-memory, resumed and
// merged datasets are byte-identical to an uninterrupted serial run.
// Every entry of done must be non-nil. The instances are allocated once
// and the cells copy theirs in on the par pool, not in a serial tail.
func assembleDataset(stencils []stencil.Stencil, archs []gpu.Arch, done []*journalCell, workers int) *Dataset {
	d := &Dataset{Stencils: stencils}
	d.Archs = append(d.Archs, archs...)
	d.Profiles = make([][]Profile, len(archs))
	nS := len(stencils)
	rows := make([]Profile, len(done)) // one allocation for every arch's row
	for ai := range archs {
		d.Profiles[ai] = rows[ai*nS : (ai+1)*nS : (ai+1)*nS]
	}
	off := make([]int, len(done)+1) // cell i's instances start at off[i]
	for i, c := range done {
		d.Profiles[i/nS][i%nS] = c.Profile
		off[i+1] = off[i] + len(c.Instances)
	}
	d.Instances = make([]Instance, off[len(done)])
	_ = par.ForEach(context.Background(), len(done), workers, func(i int) error {
		copy(d.Instances[off[i]:], done[i].Instances)
		return nil
	})
	return d
}
