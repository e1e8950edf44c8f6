package profile

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"stencilmart/internal/gpu"
	"stencilmart/internal/persist"
	"stencilmart/internal/stencil"
)

// Sharded collection splits one collection's cell-index space across
// journal shards that different worker processes write independently.
// A shard journal is framed exactly like a full-collection journal —
// same kind, version, and identity meta; shard boundaries are not part
// of the identity — so shards, serial journals, and re-sharded resumes
// are interchangeable inputs to MergeJournals, and a merged campaign
// assembles the same bytes a serial CollectJournal run would.

// ErrJournalIncomplete reports a merge over shards that do not cover
// every cell of the collection — the campaign is not finished yet.
var ErrJournalIncomplete = errors.New("profile: journals do not cover every cell of the collection")

// ShardStats reports what one CollectShard call recovered versus
// measured.
type ShardStats struct {
	// Assigned is how many distinct cells the shard was asked to cover.
	Assigned int
	// Resumed cells were already durable in the shard journal.
	Resumed int
	// Measured cells were measured and appended this run.
	Measured int
	// RepairedBytes counts journal bytes dropped from a damaged tail.
	RepairedBytes int64
}

// CollectShard measures the assigned cells of the collection into the
// WAL shard at path, resuming any cells the shard already holds. Cell
// indices are global — cell i is (stencils[i%len(stencils)],
// archs[i/len(stencils)]) — and every measurement derives its rng from
// the profiler seed alone, so two workers assigned overlapping cells
// append byte-identical records and the merge step can dedup them
// safely. onCell, when non-nil, is invoked after each newly measured
// cell is durably appended; it is called from the measuring goroutines
// and must be safe for concurrent use.
func (p *Profiler) CollectShard(ctx context.Context, path string, stencils []stencil.Stencil, archs []gpu.Arch, assigned []int, onCell func(index int)) (ShardStats, error) {
	_, stats, err := p.collectInto(ctx, path, stencils, archs, assigned, onCell)
	return stats, err
}

// collectInto is the one journaled collection: CollectShard, and
// CollectJournal as the shard that is assigned every cell. It returns the
// journal's cells, replayed and measured.
func (p *Profiler) collectInto(ctx context.Context, path string, stencils []stencil.Stencil, archs []gpu.Arch, assigned []int, onCell func(index int)) (*cellSet, ShardStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var stats ShardStats
	if len(stencils) == 0 || len(archs) == 0 {
		return nil, stats, fmt.Errorf("profile: empty corpus (%d stencils, %d archs)", len(stencils), len(archs))
	}
	meta, err := p.journalMeta(stencils, archs)
	if err != nil {
		return nil, stats, err
	}
	for _, i := range assigned {
		if i < 0 || i >= meta.Cells {
			return nil, stats, fmt.Errorf("profile: assigned cell %d outside [0,%d)", i, meta.Cells)
		}
	}

	wal, replay, err := persist.OpenWAL(path, JournalKind, JournalVersion, meta)
	if err != nil {
		return nil, stats, err
	}
	defer wal.Close()
	if err := matchMeta(replay.Meta, meta, path); err != nil {
		return nil, stats, err
	}
	stats.RepairedBytes = replay.TruncatedBytes

	cells := newCellSet(len(stencils), archs)
	if _, err := cells.absorb(replay.Records, path); err != nil {
		return nil, stats, err
	}
	var remaining []int
	seen := make(map[int]bool, len(assigned))
	for _, i := range assigned {
		if seen[i] {
			continue
		}
		seen[i] = true
		stats.Assigned++
		if cells.done[i] != nil {
			stats.Resumed++
			continue
		}
		remaining = append(remaining, i)
	}
	stats.Measured = len(remaining)

	err = p.measureCells(ctx, stencils, archs, remaining, func(c *journalCell) error {
		raw, err := c.encode()
		if err != nil {
			return err
		}
		if err := wal.Append(raw); err != nil {
			return err
		}
		cells.done[c.Index] = c
		if onCell != nil {
			onCell(c.Index)
		}
		return nil
	})
	return cells, stats, err
}

// MergeStats reports what MergeJournals assembled.
type MergeStats struct {
	// Shards is the number of journals read.
	Shards int
	// Cells is the collection's total cell count.
	Cells int
	// Duplicates counts byte-identical duplicate records tolerated
	// across (and within) shards — re-dispatched work, not corruption.
	Duplicates int
	// TruncatedBytes totals damaged tail bytes ignored across shards.
	TruncatedBytes int64
}

// MergeJournals validates every journal's identity against this
// profiler+corpus, dedups overlapping cells (byte-identical duplicates
// are re-dispatched work and are tolerated; divergent duplicates fail
// with ErrJournalMismatch), and assembles the covered cells into a
// dataset in cell-index order — bitwise-identical to a serial
// CollectJournal (or Collect) of the same collection. Shards that do
// not cover every cell fail with ErrJournalIncomplete; the journals are
// read-only inputs and are never modified.
func (p *Profiler) MergeJournals(paths []string, stencils []stencil.Stencil, archs []gpu.Arch) (*Dataset, MergeStats, error) {
	cells, stats, err := p.readJournals(paths, stencils, archs)
	if err != nil {
		return nil, stats, err
	}
	if missing := cells.missing(); len(missing) > 0 {
		return nil, stats, fmt.Errorf("%w: %d of %d cells missing (first: %d)",
			ErrJournalIncomplete, len(missing), stats.Cells, missing[0])
	}
	return assembleDataset(stencils, archs, cells.done, p.Workers), stats, nil
}

// JournalCoverage reports which cells of the collection the given
// journals already hold, under the same identity validation and
// duplicate-divergence checks as MergeJournals. A campaign coordinator
// uses it to resume a half-finished campaign: only uncovered cells are
// re-dispatched.
func (p *Profiler) JournalCoverage(paths []string, stencils []stencil.Stencil, archs []gpu.Arch) ([]bool, error) {
	cells, _, err := p.readJournals(paths, stencils, archs)
	if err != nil {
		return nil, err
	}
	covered := make([]bool, len(cells.done))
	for i, c := range cells.done {
		covered[i] = c != nil
	}
	return covered, nil
}

// readJournals validates and dedups every journal into one cell set.
func (p *Profiler) readJournals(paths []string, stencils []stencil.Stencil, archs []gpu.Arch) (*cellSet, MergeStats, error) {
	var stats MergeStats
	if len(stencils) == 0 || len(archs) == 0 {
		return nil, stats, fmt.Errorf("profile: empty corpus (%d stencils, %d archs)", len(stencils), len(archs))
	}
	meta, err := p.journalMeta(stencils, archs)
	if err != nil {
		return nil, stats, err
	}
	stats.Cells = meta.Cells
	cells := newCellSet(len(stencils), archs)
	for _, path := range paths {
		replay, err := persist.ReadWAL(path, JournalKind, JournalVersion)
		if err != nil {
			return nil, stats, fmt.Errorf("profile: shard %s: %w", path, err)
		}
		if err := matchMeta(replay.Meta, meta, path); err != nil {
			return nil, stats, err
		}
		fresh, err := cells.absorb(replay.Records, path)
		if err != nil {
			return nil, stats, err
		}
		stats.Shards++
		stats.Duplicates += len(replay.Records) - fresh
		stats.TruncatedBytes += replay.TruncatedBytes
	}
	return cells, stats, nil
}

// matchMeta compares a replayed journal identity against ours.
func matchMeta(raw json.RawMessage, want journalMeta, path string) error {
	var got journalMeta
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("%w: %s: unreadable journal meta: %v", ErrJournalMismatch, path, err)
	}
	if got != want {
		return fmt.Errorf("%w: %s holds %+v, this collection is %+v", ErrJournalMismatch, path, got, want)
	}
	return nil
}
