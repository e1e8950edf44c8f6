package campaign

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stencilmart/internal/profile"
)

// TokenHeader carries a worker's campaign auth token.
const TokenHeader = "X-Campaign-Token"

// Options tunes a coordinator.
type Options struct {
	// Shards is how many shards the uncovered cell space is partitioned
	// into; <= 0 selects one shard per four cells (min 1). More shards
	// than workers keeps every worker busy and bounds what one dead
	// worker's lease expiry re-dispatches.
	Shards int
	// Lease is the heartbeat deadline before a shard is re-dispatched;
	// <= 0 selects DefaultLease. It must exceed the worst-case time of
	// one cell — heartbeats arrive per completed cell.
	Lease time.Duration
	// Dir is the campaign directory every shard WAL lives in. The
	// coordinator scans it at startup, so a restarted campaign resumes
	// from whatever previous workers made durable.
	Dir string
	// Token, when non-empty, gates the mutating endpoints (/lease,
	// /heartbeat, /complete): workers must send it in the TokenHeader
	// header or get 401. The read-only endpoints (/spec, /statsz) stay
	// open. Empty disables auth — the single-machine default.
	Token string
}

// shardState is a shard's lease lifecycle.
type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

func (s shardState) String() string {
	switch s {
	case shardPending:
		return "pending"
	case shardLeased:
		return "leased"
	case shardDone:
		return "done"
	}
	return "unknown"
}

// shardInfo is the coordinator-side state of one shard.
type shardInfo struct {
	id      int
	cells   []int
	state   shardState
	worker  string
	attempt int
	expiry  time.Time
	done    int // cells reported durable by the current attempt
	paths   []string
}

// workerInfo aggregates per-worker progress counters.
type workerInfo struct {
	leases    int
	completes int
	cellsDone int
	lastSeen  time.Time
}

// Coordinator runs one campaign: it publishes the spec, leases shards,
// re-dispatches expired leases, and merges the shard journals once
// every shard completes.
type Coordinator struct {
	spec Spec
	opts Options
	prof *profile.Profiler // identity + merge profiler (never measures)

	mu           sync.Mutex
	shards       []*shardInfo
	workers      map[string]*workerInfo
	preCovered   int // cells already durable when the campaign started
	redispatches int
	unauthorized atomic.Uint64
}

// NewCoordinator scans opts.Dir for shard journals left by earlier
// campaign runs, validates them against the spec identity, and
// partitions the uncovered cells into shards. A campaign whose cells
// are all covered already is born complete — Done reports true and
// Merge assembles the dataset.
func NewCoordinator(spec Spec, opts Options) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("campaign: coordinator needs a campaign directory")
	}
	if opts.Lease <= 0 {
		opts.Lease = DefaultLease
	}
	c := &Coordinator{
		spec:    spec,
		opts:    opts,
		prof:    spec.NewProfiler(1),
		workers: make(map[string]*workerInfo),
	}

	paths, err := c.shardFiles()
	if err != nil {
		return nil, err
	}
	missing := make([]int, 0, spec.Cells())
	if len(paths) > 0 {
		covered, err := c.prof.JournalCoverage(paths, spec.Stencils, spec.Archs)
		if err != nil {
			return nil, fmt.Errorf("campaign: scanning %s: %w", opts.Dir, err)
		}
		for i, ok := range covered {
			if ok {
				c.preCovered++
			} else {
				missing = append(missing, i)
			}
		}
	} else {
		for i := 0; i < spec.Cells(); i++ {
			missing = append(missing, i)
		}
	}

	nShards := opts.Shards
	if nShards <= 0 {
		nShards = (len(missing) + 3) / 4
	}
	if nShards > len(missing) {
		nShards = len(missing)
	}
	if nShards < 1 {
		nShards = 0 // nothing left to dispatch
	}
	for s := 0; s < nShards; s++ {
		lo, hi := s*len(missing)/nShards, (s+1)*len(missing)/nShards
		c.shards = append(c.shards, &shardInfo{id: s, cells: missing[lo:hi]})
	}
	return c, nil
}

// shardFiles lists every WAL file in the campaign directory, sorted for
// deterministic scan and merge order.
func (c *Coordinator) shardFiles() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(c.opts.Dir, "*.wal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// Done reports whether every shard has completed.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.allDoneLocked()
}

// Merge assembles every shard journal in the campaign directory into
// the dataset — bitwise-identical to a serial CollectJournal of the
// same collection. It validates shard identities, dedups re-dispatched
// work, and fails with profile.ErrJournalIncomplete when cells are
// still missing.
func (c *Coordinator) Merge() (*profile.Dataset, profile.MergeStats, error) {
	paths, err := c.shardFiles()
	if err != nil {
		return nil, profile.MergeStats{}, err
	}
	return c.prof.MergeJournals(paths, c.spec.Stencils, c.spec.Archs)
}

// Handler returns the coordinator's HTTP API:
//
//	GET  /spec      the collection identity workers profile under
//	POST /lease     acquire (or re-acquire an expired) shard
//	POST /heartbeat renew a lease with per-cell progress
//	POST /complete  report a fully measured shard
//	GET  /statsz    shard and worker progress
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/spec", c.handleSpec)
	mux.HandleFunc("/lease", c.authed(c.handleLease))
	mux.HandleFunc("/heartbeat", c.authed(c.handleHeartbeat))
	mux.HandleFunc("/complete", c.authed(c.handleComplete))
	mux.HandleFunc("/statsz", c.handleStatsz)
	return mux
}

// authed gates a mutating endpoint behind the campaign token. The
// comparison is constant-time so the token cannot be guessed
// byte-by-byte off response timing.
func (c *Coordinator) authed(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.opts.Token != "" &&
			subtle.ConstantTimeCompare([]byte(r.Header.Get(TokenHeader)), []byte(c.opts.Token)) != 1 {
			c.unauthorized.Add(1)
			writeJSON(w, http.StatusUnauthorized, errorBody{Error: "missing or invalid campaign token"})
			return
		}
		next(w, r)
	}
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.spec)
}

// touch updates (creating if needed) a worker's liveness entry. Callers
// hold c.mu.
func (c *Coordinator) touch(name string) *workerInfo {
	wi := c.workers[name]
	if wi == nil {
		wi = &workerInfo{}
		c.workers[name] = wi
	}
	wi.lastSeen = time.Now()
	return wi
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "lease request without a worker id"})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wi := c.touch(req.Worker)

	grant := func(sh *shardInfo) {
		sh.state = shardLeased
		sh.worker = req.Worker
		sh.attempt++
		sh.expiry = time.Now().Add(c.opts.Lease)
		sh.done = 0
		path := filepath.Join(c.opts.Dir, fmt.Sprintf("shard-%03d-a%03d.wal", sh.id, sh.attempt))
		sh.paths = append(sh.paths, path)
		wi.leases++
		writeJSON(w, http.StatusOK, LeaseResponse{
			Shard:       sh.id,
			Attempt:     sh.attempt,
			Cells:       sh.cells,
			Path:        path,
			LeaseMillis: c.opts.Lease.Milliseconds(),
		})
	}

	for _, sh := range c.shards {
		if sh.state == shardPending {
			grant(sh)
			return
		}
	}
	// No pending shard: reclaim the most-expired lease, if any — the
	// straggler re-dispatch path. The dead attempt's partial WAL stays;
	// its cells merge as byte-identical duplicates.
	var expired *shardInfo
	now := time.Now()
	for _, sh := range c.shards {
		if sh.state == shardLeased && now.After(sh.expiry) {
			if expired == nil || sh.expiry.Before(expired.expiry) {
				expired = sh
			}
		}
	}
	if expired != nil {
		c.redispatches++
		grant(expired)
		return
	}
	if c.allDoneLocked() {
		writeJSON(w, http.StatusOK, LeaseResponse{Done: true})
		return
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Wait: true})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wi := c.touch(req.Worker)
	sh := c.shard(req.Shard)
	if sh == nil || sh.state != shardLeased || sh.worker != req.Worker || sh.attempt != req.Attempt {
		// The lease moved on (expiry re-dispatch) or the shard finished
		// elsewhere: tell the straggler to abandon its attempt.
		writeJSON(w, http.StatusOK, heartbeatResponse{Cancelled: true})
		return
	}
	sh.expiry = time.Now().Add(c.opts.Lease)
	if req.CellsDone > sh.done {
		wi.cellsDone += req.CellsDone - sh.done
		sh.done = req.CellsDone
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wi := c.touch(req.Worker)
	sh := c.shard(req.Shard)
	if sh == nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown shard %d", req.Shard)})
		return
	}
	// A stale complete (the shard was re-dispatched and the original
	// worker finished anyway) is still a completion: its WAL covers the
	// whole shard and deduplication makes the overlap harmless.
	if sh.state != shardDone {
		sh.state = shardDone
		sh.done = len(sh.cells)
		wi.completes++
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) shard(id int) *shardInfo {
	if id < 0 || id >= len(c.shards) {
		return nil
	}
	return c.shards[id]
}

func (c *Coordinator) allDoneLocked() bool {
	for _, sh := range c.shards {
		if sh.state != shardDone {
			return false
		}
	}
	return true
}

// ShardSnapshot is one shard's state on /statsz.
type ShardSnapshot struct {
	ID      int    `json:"id"`
	State   string `json:"state"`
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt"`
	Cells   int    `json:"cells"`
	Done    int    `json:"done"`
}

// WorkerSnapshot is one worker's counters on /statsz.
type WorkerSnapshot struct {
	Leases        int   `json:"leases"`
	Completes     int   `json:"completes"`
	CellsDone     int   `json:"cells_done"`
	LastSeenMilli int64 `json:"last_seen_millis"`
}

// StatsSnapshot is the /statsz body.
type StatsSnapshot struct {
	Cells        int                       `json:"cells"`
	Covered      int                       `json:"covered_at_start"`
	Redispatches int                       `json:"redispatches"`
	Unauthorized uint64                    `json:"unauthorized"`
	Done         bool                      `json:"done"`
	Shards       []ShardSnapshot           `json:"shards"`
	Workers      map[string]WorkerSnapshot `json:"workers"`
}

// Stats snapshots campaign progress.
func (c *Coordinator) Stats() StatsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := StatsSnapshot{
		Cells:        c.spec.Cells(),
		Covered:      c.preCovered,
		Redispatches: c.redispatches,
		Unauthorized: c.unauthorized.Load(),
		Done:         c.allDoneLocked(),
		Workers:      make(map[string]WorkerSnapshot, len(c.workers)),
	}
	for _, sh := range c.shards {
		out.Shards = append(out.Shards, ShardSnapshot{
			ID: sh.id, State: sh.state.String(), Worker: sh.worker,
			Attempt: sh.attempt, Cells: len(sh.cells), Done: sh.done,
		})
	}
	now := time.Now()
	for name, wi := range c.workers {
		out.Workers[name] = WorkerSnapshot{
			Leases: wi.leases, Completes: wi.completes, CellsDone: wi.cellsDone,
			LastSeenMilli: now.Sub(wi.lastSeen).Milliseconds(),
		}
	}
	return out
}

func (c *Coordinator) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}

// readJSON decodes a request body, answering 400 on garbage.
func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(into); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}
