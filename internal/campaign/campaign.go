// Package campaign promotes the resumable profiling journal into a
// distributed collection subsystem: a coordinator partitions the cell
// index space [0, len(stencils)*len(archs)) of one collection into
// shards and leases them to worker processes over plain HTTP; each
// worker measures its leased cells into its own checksummed WAL shard
// (internal/persist) and heartbeats per-cell progress back. Leases that
// expire — a worker died, hung, or straggles — are re-dispatched to the
// next worker that asks, and a final merge step validates every shard's
// collection identity, dedups the byte-identical records overlapping
// attempts produce, and assembles one dataset bitwise-identical to a
// serial CollectJournal run of the same collection.
//
// The protocol carries control only; measurement data travels through
// the shard WALs, so coordinator and workers must share a filesystem
// (one machine, or a shared mount). Everything that matters for
// correctness is already guaranteed below this layer: cell measurements
// are pure functions of the collection seed, shard journals carry the
// full collection identity, and divergent duplicate cells fail the
// merge instead of silently last-winning.
//
// Nothing in the command-line tool reaches this package: one in-memory
// pass (profile.Profiler.Collect) is the product path. The benchmark's
// in-process campaign probe (bench/layers_collect.go) is its only
// caller: the package stays only for bench/, ROADMAP item 22.
package campaign

import (
	"fmt"
	"time"

	"stencilmart/internal/gpu"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

// DefaultLease is how long a worker may sit on a shard without a
// heartbeat before the shard is re-dispatched. Heartbeats arrive per
// completed cell, so the lease must exceed the worst-case time of one
// cell, not of one shard.
const DefaultLease = 30 * time.Second

// DefaultPoll is how long a worker waits before re-asking for work when
// every shard is leased out.
const DefaultPoll = 250 * time.Millisecond

// Spec is the collection identity a coordinator publishes and every
// worker profiles under. It carries exactly the inputs that determine
// the dataset bytes: the corpus, the architecture specs, the search
// budget and the seed. Workers measure fault-free, one trial per
// setting.
type Spec struct {
	Stencils     []stencil.Stencil `json:"stencils"`
	Archs        []gpu.Arch        `json:"archs"`
	SamplesPerOC int               `json:"samples_per_oc"`
	Seed         int64             `json:"seed"`
}

// Cells is the size of the campaign's cell-index space.
func (s Spec) Cells() int { return len(s.Stencils) * len(s.Archs) }

// Validate checks the spec describes a non-empty collection.
func (s Spec) Validate() error {
	if len(s.Stencils) == 0 || len(s.Archs) == 0 {
		return fmt.Errorf("campaign: empty spec (%d stencils, %d archs)", len(s.Stencils), len(s.Archs))
	}
	if s.SamplesPerOC < 1 {
		return fmt.Errorf("campaign: samples per OC %d < 1", s.SamplesPerOC)
	}
	return nil
}

// NewProfiler builds the profiler this spec's measurements run on.
// Workers is the local measurement parallelism; 0 uses GOMAXPROCS.
func (s Spec) NewProfiler(workers int) *profile.Profiler {
	return &profile.Profiler{
		Model:        sim.New(),
		SamplesPerOC: s.SamplesPerOC,
		Seed:         s.Seed,
		Workers:      workers,
	}
}

// Wire types of the coordinator protocol. Every body is small JSON;
// the shard payloads themselves never cross HTTP.

// leaseRequest asks for a shard.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse answers a lease request: exactly one of Done, Wait, or
// a shard assignment.
type LeaseResponse struct {
	// Done reports the campaign has no work left (merge is next).
	Done bool `json:"done,omitempty"`
	// Wait reports every shard is currently leased; poll again.
	Wait bool `json:"wait,omitempty"`
	// Shard and Attempt identify the lease for heartbeats/completion.
	Shard   int `json:"shard"`
	Attempt int `json:"attempt"`
	// Cells are the global cell indices to measure.
	Cells []int `json:"cells,omitempty"`
	// Path is the WAL shard file to write (coordinator-chosen so every
	// attempt gets its own single-writer file).
	Path string `json:"path,omitempty"`
	// LeaseMillis is how often the worker must heartbeat to keep the
	// shard.
	LeaseMillis int64 `json:"lease_millis,omitempty"`
}

// heartbeatRequest renews a lease and reports progress.
type heartbeatRequest struct {
	Worker  string `json:"worker"`
	Shard   int    `json:"shard"`
	Attempt int    `json:"attempt"`
	// CellsDone is the cumulative count of cells this attempt has made
	// durable.
	CellsDone int `json:"cells_done"`
}

// heartbeatResponse tells a straggler whose lease was re-dispatched to
// abandon the shard (its durable cells are kept and deduped at merge).
type heartbeatResponse struct {
	Cancelled bool `json:"cancelled,omitempty"`
}

// completeRequest reports a fully measured shard.
type completeRequest struct {
	Worker  string `json:"worker"`
	Shard   int    `json:"shard"`
	Attempt int    `json:"attempt"`
}
