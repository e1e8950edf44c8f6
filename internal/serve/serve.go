// Package serve exposes a trained StencilMART framework as an HTTP
// prediction service: POST a stencil and a target GPU, get back the
// predicted optimization class, a tuned parameter setting, predicted
// times on every catalog GPU, and the rent-advisor verdict. The server
// is the deploy-side half of the train-once/predict-cheaply contract —
// it never trains or profiles; it serves checkpoints.
//
// Two mechanisms replace the global model mutex of earlier revisions:
// concurrent /predict requests coalesce into batches scored through one
// core.ServePredictBatch call (internal/serve/batch), and models live in
// a versioned registry (internal/serve/registry) whose refcounted handles
// let checkpoints hot-swap under load — publish a new version, drain the
// old one, zero failed requests.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/serve/batch"
	"stencilmart/internal/serve/registry"
	"stencilmart/internal/stencil"
)

// DefaultTimeout bounds one request's prediction work.
const DefaultTimeout = 30 * time.Second

// DefaultMaxInFlight bounds concurrently admitted /predict requests;
// excess load is shed with 503 instead of queueing without bound.
// Admitted requests queue behind the scoring lane and become its next
// batches; this cap is what bounds that queue (the coalescer's own is
// unbounded), so it sits above one full batch.
const DefaultMaxInFlight = 64

// DefaultBatchWindow is vestigial: the coalescer has no window (the lane
// scores what is queued the moment it goes idle). The name stays, at
// zero, only because bench/layers_serve.go reads it and a PR claiming a
// gain may not edit bench/; ROADMAP item 1(ii) lists its removal.
const DefaultBatchWindow time.Duration = 0

// DefaultBatchSize caps a coalesced batch.
const DefaultBatchSize = 32

// MaxRequestBytes bounds a /predict body; larger requests get 413.
const MaxRequestBytes = 1 << 20

// Lane selects which numeric inference path scores a request: the
// float64 reference pipeline or the compiled float32 hot path (quantized
// tree columns / f32 GEMM over arena scratch). Decisions agree
// away from documented ties; see DESIGN.md §12 for the tolerance
// contract.
type Lane string

const (
	// LaneF64 is the float64 reference pipeline — the default.
	LaneF64 Lane = "f64"
	// LaneF32 is the compiled float32 inference lane.
	LaneF32 Lane = "f32"
)

// ParseLane validates a lane name ("" selects the default f64 lane).
func ParseLane(s string) (Lane, error) {
	switch Lane(s) {
	case "":
		return LaneF64, nil
	case LaneF64, LaneF32:
		return Lane(s), nil
	default:
		return "", fmt.Errorf("unknown lane %q (f32, f64)", s)
	}
}

// Options tunes the hardened server; zero values select the defaults.
type Options struct {
	// Timeout bounds one request's prediction work (DefaultTimeout if 0).
	Timeout time.Duration
	// MaxInFlight bounds admitted /predict requests (DefaultMaxInFlight
	// if 0); requests beyond it are shed with 503 + Retry-After.
	MaxInFlight int
	// BatchSize caps a coalesced batch (DefaultBatchSize if 0); 1 scores
	// requests one at a time through the same serialized lane — the
	// baseline the bench harness compares against.
	BatchSize int
	// Lane is the default inference lane for requests that don't pin one
	// with ?lane= (LaneF64 if empty).
	Lane Lane
}

// endpointStats aggregates per-endpoint counters with atomics so the
// stats page never contends with request handling.
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	totalNS  atomic.Int64
	hist     latencyHist
	// deadlineExpired counts requests answered 504 because their deadline
	// (client-propagated or server timeout) expired before or during
	// scoring.
	deadlineExpired atomic.Uint64
}

func (s *endpointStats) observe(d time.Duration, failed bool) {
	s.requests.Add(1)
	s.totalNS.Add(d.Nanoseconds())
	s.hist.observe(d)
	if failed {
		s.errors.Add(1)
	}
}

// EndpointSnapshot is one endpoint's counters in /statsz. The latency
// quantiles come from a fixed-bucket exponential histogram, so tail
// behavior (a p999 hiding behind a healthy mean) is visible.
type EndpointSnapshot struct {
	Requests  uint64  `json:"requests"`
	Errors    uint64  `json:"errors"`
	AvgMillis float64 `json:"avg_millis"`
	P50Millis float64 `json:"p50_millis"`
	P99Millis float64 `json:"p99_millis"`
	// P999Millis is the 99.9th percentile latency in milliseconds.
	P999Millis float64 `json:"p999_millis"`
	// DeadlineExpired counts requests rejected with 504 because their
	// deadline expired before they could be served.
	DeadlineExpired uint64 `json:"deadline_expired"`
}

func (s *endpointStats) snapshot() EndpointSnapshot {
	n := s.requests.Load()
	out := EndpointSnapshot{Requests: n, Errors: s.errors.Load(), DeadlineExpired: s.deadlineExpired.Load()}
	if n > 0 {
		out.AvgMillis = float64(s.totalNS.Load()) / float64(n) / 1e6
		out.P50Millis = s.hist.quantileMillis(0.50)
		out.P99Millis = s.hist.quantileMillis(0.99)
		out.P999Millis = s.hist.quantileMillis(0.999)
	}
	return out
}

// predictJob is one /predict request inside the coalescer: the model
// lease it acquired at admission, the request itself, and the request's
// context (carrying the propagated deadline into batch scoring). The
// lease is released exactly once — by scoreBatch after scoring, or by
// the coalescer's drop hook if the job never reaches a batch.
type predictJob struct {
	h    *registry.Handle
	req  core.ServeRequest
	lane Lane
	ctx  context.Context
}

// predictResult is what a scored job hands back to its waiting handler:
// the prediction plus where it actually came from — under breaker
// degradation the serving lane/version differ from what the request
// asked for, and the handler surfaces that in response headers without
// touching the body.
type predictResult struct {
	pred     *core.ServePrediction
	lane     Lane
	version  string
	degraded bool
}

// predictBatchFn scores one batch of requests against one framework.
// Tests substitute doubles that block or panic; the default is the
// method expression for core.(*Framework).ServePredictBatch, hence the
// receiver-first shape.
type predictBatchFn func(fw *core.Framework, ctx context.Context, reqs []core.ServeRequest) []core.ServeOutcome

// Server serves predictions from a versioned registry of trained
// frameworks through a request-coalescing lane.
type Server struct {
	reg     *registry.Registry
	co      *batch.Coalescer[predictJob, predictResult]
	timeout time.Duration
	started time.Time
	lane    Lane // default lane for requests without ?lane=

	// breakers guards every (version, lane) scoring path; scorePanic,
	// when set (only by tests), makes the scoring call at site
	// "lane/version" panic when it answers true.
	breakers   *breakerSet
	scorePanic func(site string) bool

	// arena is the f32 lane's per-batch scratch. The coalescer scores
	// batches through a single serialized lane, so one server-owned
	// arena is reused across every flush without synchronization.
	arena *core.ServeArena

	// laneF64/laneF32 count /predict requests scored per lane.
	laneF64 atomic.Uint64
	laneF32 atomic.Uint64

	healthz endpointStats
	statsz  endpointStats
	predict endpointStats
	modelz  endpointStats

	// inflight is the /predict admission semaphore; fault counters feed
	// the /statsz fault snapshot.
	inflight chan struct{}
	panics   atomic.Uint64
	shed     atomic.Uint64
	oversize atomic.Uint64
	// degraded counts requests answered through a breaker fallback
	// (different lane or version than requested).
	degraded atomic.Uint64

	// predictFn is the batch prediction step, swapped atomically because
	// the scorer goroutine reads it while tests replace it.
	predictFn atomic.Pointer[predictBatchFn]
}

// New wraps a trained framework in a server with default hardening. The
// framework must already hold trained models (TrainAll or a loaded
// checkpoint).
func New(fw *core.Framework, timeout time.Duration) (*Server, error) {
	return NewWithOptions(fw, Options{Timeout: timeout})
}

// NewWithOptions is New with explicit hardening knobs: the framework is
// published as v1 of a fresh registry.
func NewWithOptions(fw *core.Framework, opts Options) (*Server, error) {
	reg := registry.New()
	if _, err := reg.Publish(fw); err != nil {
		return nil, fmt.Errorf("serve: framework has no trained models (train or load a checkpoint first)")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = DefaultBatchSize
	}
	lane, err := ParseLane(string(opts.Lane))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		reg:      reg,
		timeout:  opts.Timeout,
		started:  time.Now(),
		lane:     lane,
		arena:    core.NewServeArena(),
		inflight: make(chan struct{}, opts.MaxInFlight),
		breakers: newBreakerSet(),
	}
	s.setPredict(nil)
	s.co = batch.New(batch.Options[predictJob]{
		MaxBatch: opts.BatchSize,
		// A job dropped before scoring still holds its model lease.
		OnDrop: func(j predictJob) { j.h.Release() },
	}, s.scoreBatch)
	return s, nil
}

// setPredict swaps the batch prediction function; nil restores the real
// model path.
func (s *Server) setPredict(fn predictBatchFn) {
	if fn == nil {
		fn = (*core.Framework).ServePredictBatch
	}
	s.predictFn.Store(&fn)
}

// Registry exposes the server's model registry for out-of-band rollout
// (tests, admin tooling).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Close drains the coalescing lane: queued requests fail with 503 and
// the lane goroutine exits. The HTTP handler stays mounted but sheds
// everything; use it at process shutdown.
func (s *Server) Close() { s.co.Close() }

// errBreakerOpen is the terminal failure when a breaker reroutes a group
// but no healthy fallback exists.
var errBreakerOpen = errors.New("service degraded: scoring lane unavailable and no healthy fallback")

// scoreBatch is the coalescer's score function. Jobs whose context
// already expired while queueing are rejected with the context error —
// their handlers answer 504 without a scoring call. The survivors group
// by leased (version, lane) pair (a batch spanning a hot-swap scores
// each version's requests against its own models; mixed-lane batches
// score each lane through its own pipeline), every group scores through
// one batched model call under a context carrying the earliest deadline
// among the batch's requests, and all leases release on the way out —
// panics included.
func (s *Server) scoreBatch(jobs []predictJob) []batch.Outcome[predictResult] {
	outs := make([]batch.Outcome[predictResult], len(jobs))
	byGroup := make(map[breakerKey][]int)
	var order []breakerKey
	var earliest time.Time
	haveDeadline := false
	for i, j := range jobs {
		if err := j.ctx.Err(); err != nil {
			outs[i] = batch.Outcome[predictResult]{Err: err}
			j.h.Release()
			continue
		}
		if d, ok := j.ctx.Deadline(); ok && (!haveDeadline || d.Before(earliest)) {
			earliest, haveDeadline = d, true
		}
		key := breakerKey{version: j.h.Version(), lane: j.lane}
		if _, seen := byGroup[key]; !seen {
			order = append(order, key)
		}
		byGroup[key] = append(byGroup[key], i)
	}
	ctx := context.Background()
	if haveDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, earliest)
		defer cancel()
	}
	for _, key := range order {
		s.scoreGroup(ctx, key, byGroup[key], jobs, outs)
	}
	return outs
}

// scoreGroup scores one same-(version, lane) slice of a batch, routed
// through the group's circuit breaker. The healthy path scores via
// scoreVia; a scoring fault (panic or mis-shaped result) feeds the
// breaker and the group rescores through a fallback — f32 falls back to
// the same version's f64 reference lane, f64 to the newest previous
// healthy version — so a sick lane degrades service instead of failing
// it. Once open, the breaker short-circuits straight to the fallback
// until a cooldown elapses and a half-open probe retries the primary.
// Context errors never feed the breaker: a slow batch is not a sick
// lane. The deferred releases keep the registry drainable.
func (s *Server) scoreGroup(ctx context.Context, key breakerKey, idxs []int, jobs []predictJob, outs []batch.Outcome[predictResult]) {
	defer func() {
		for _, i := range idxs {
			jobs[i].h.Release()
		}
	}()
	fw := jobs[idxs[0]].h.Framework()
	reqs := make([]core.ServeRequest, len(idxs))
	for k, i := range idxs {
		reqs[k] = jobs[i].req
	}

	fill := func(res []core.ServeOutcome, lane Lane, version string, degraded bool) {
		for k, i := range idxs {
			outs[i] = batch.Outcome[predictResult]{
				Value: predictResult{pred: res[k].Prediction, lane: lane, version: version, degraded: degraded},
				Err:   res[k].Err,
			}
		}
	}
	failAll := func(err error) {
		for _, i := range idxs {
			outs[i] = batch.Outcome[predictResult]{Err: err}
		}
	}

	allow, probe := s.breakers.route(key)
	var primaryErr error
	if allow {
		res, err := s.scoreVia(ctx, fw, key.lane, key.version, reqs)
		if err == nil {
			s.breakers.result(key, probe, false)
			fill(res, key.lane, key.version, false)
			return
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The batch ran out of time; the lane is fine.
			failAll(err)
			return
		}
		s.breakers.result(key, probe, true)
		primaryErr = err
	}

	fbFw, fbHandle, fbKey, ok := s.fallbackFor(fw, key)
	if !ok {
		if primaryErr != nil {
			failAll(primaryErr)
		} else {
			failAll(errBreakerOpen)
		}
		return
	}
	if fbHandle != nil {
		defer fbHandle.Release()
	}
	res, err := s.scoreVia(ctx, fbFw, fbKey.lane, fbKey.version, reqs)
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			s.breakers.result(fbKey, false, true)
			if primaryErr != nil {
				err = primaryErr
			}
		}
		failAll(err)
		return
	}
	s.breakers.result(fbKey, false, false)
	s.breakers.markFallback(key, len(idxs))
	s.degraded.Add(uint64(len(idxs)))
	fill(res, fbKey.lane, fbKey.version, true)
}

// scoreVia runs one batched scoring call on (fw, lane), converting a
// panic or mis-shaped result into an error the caller feeds the breaker.
// The f32 lane scores through the compiled models over the server's
// arena; the f64 lane goes through predictFn (which tests substitute —
// test doubles only ever intercept the reference lane). The scorePanic
// hook fires inside the recovery scope, so injected scoring panics
// travel the exact path real ones do.
func (s *Server) scoreVia(ctx context.Context, fw *core.Framework, lane Lane, version string, reqs []core.ServeRequest) (res []core.ServeOutcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			res, err = nil, fmt.Errorf("internal error: predict panicked: %v", v)
		}
	}()
	if s.scorePanic != nil && s.scorePanic(string(lane)+"/"+version) {
		panic("injected scoring fault")
	}
	if lane == LaneF32 {
		s.laneF32.Add(uint64(len(reqs)))
		res = fw.ServePredictBatchF32(ctx, reqs, s.arena)
	} else {
		s.laneF64.Add(uint64(len(reqs)))
		res = (*s.predictFn.Load())(fw, ctx, reqs)
	}
	if len(res) != len(reqs) {
		return nil, fmt.Errorf("internal error: predict returned %d outcomes for %d requests", len(res), len(reqs))
	}
	// A batch that dies on its deadline reports context errors on its
	// live items; surface that as one group error so the caller can tell
	// "out of time" from "sick lane".
	for _, o := range res {
		if e := o.Err; e != nil && (errors.Is(e, context.DeadlineExceeded) || errors.Is(e, context.Canceled)) {
			return nil, e
		}
	}
	return res, nil
}

// fallbackFor picks the degraded path for a rerouted (version, lane)
// group: the same version's f64 reference lane when the f32 lane is
// sick, otherwise the newest other version whose f64 breaker is closed.
// Fallback versions are leased from the registry for the duration of the
// scoring call (the returned handle, when non-nil, must be released);
// versions mid-retire simply fail to lease and the walk continues — a
// fallback can never resurrect a retired framework.
func (s *Server) fallbackFor(fw *core.Framework, key breakerKey) (*core.Framework, *registry.Handle, breakerKey, bool) {
	if key.lane == LaneF32 {
		fb := breakerKey{version: key.version, lane: LaneF64}
		if s.breakers.healthy(fb) {
			return fw, nil, fb, true
		}
	}
	vs := s.reg.Versions()
	for i := len(vs) - 1; i >= 0; i-- {
		v := vs[i].Version
		if v == key.version {
			continue
		}
		fb := breakerKey{version: v, lane: LaneF64}
		if !s.breakers.healthy(fb) {
			continue
		}
		h, err := s.reg.Acquire(v)
		if err != nil {
			continue
		}
		return h.Framework(), h, fb, true
	}
	return nil, nil, breakerKey{}, false
}

// Handler returns the service's HTTP handler: panic recovery around
// everything and request timeouts on the prediction endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/modelz", s.handleModelz)
	timeout := http.TimeoutHandler(http.HandlerFunc(s.handlePredict), s.timeout, `{"error":"prediction timed out"}`)
	// TimeoutHandler writes its timeout body without a Content-Type, so
	// Go's sniffer would serve the JSON error as text/plain. It preserves
	// headers already set on the real writer, so pre-setting the type
	// covers the timeout path; the non-timeout path overwrites headers
	// wholesale and is unaffected.
	mux.Handle("/predict", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		timeout.ServeHTTP(w, r)
	}))
	return s.recoverPanics(mux)
}

// recoverPanics converts a panicking handler into a 500 JSON error and a
// counted fault instead of a closed connection — one poisoned request
// must not look like a server crash to every other client.
// http.TimeoutHandler re-raises handler panics on the serving goroutine,
// so panics under the timeout wrapper land here too.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("internal error: %v", v)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Run serves on addr until ctx is cancelled, then shuts down gracefully
// (in-flight requests drain). Pass an ":0" addr to bind a random port;
// the bound address is printed as "serving on http://ADDR" so callers
// (and the smoke script) can discover it.
func (s *Server) Run(ctx context.Context, addr string, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	logf("serving on http://%s", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		logf("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		<-done // Serve has returned ErrServerClosed
		return nil
	}
}

// writeJSON writes a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.healthz.observe(time.Since(start), false) }()
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// StatsResponse is the /statsz body: the sim sample-memo counters,
// per-endpoint latency aggregates, coalescing behavior, and the model
// registry's live versions.
type StatsResponse struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	SimCache      SimCacheSnapshot            `json:"sim_cache"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Faults        FaultSnapshot               `json:"faults"`
	Batch         batch.Stats                 `json:"batch"`
	Lanes         LaneSnapshot                `json:"lanes"`
	Models        []registry.VersionInfo      `json:"models"`
	// Breakers lists every (version, lane) circuit breaker that has
	// carried traffic.
	Breakers []BreakerSnapshot `json:"breakers"`
}

// LaneSnapshot reports how /predict traffic split across the inference
// lanes (the per-version f32 compile times live in the Models listing).
type LaneSnapshot struct {
	// DefaultLane is the lane requests without ?lane= ride.
	DefaultLane Lane `json:"default_lane"`
	// F32Requests counts requests scored through the compiled f32 lane.
	F32Requests uint64 `json:"f32_requests"`
	// F64Requests counts requests scored through the f64 reference lane.
	F64Requests uint64 `json:"f64_requests"`
}

// FaultSnapshot reports the hardening counters: every time the server
// absorbed a fault instead of failing.
type FaultSnapshot struct {
	// PanicsRecovered counts handler panics converted to 500 responses.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// LoadShed counts /predict requests refused with 503 at capacity.
	LoadShed uint64 `json:"load_shed"`
	// OversizeRequests counts bodies refused with 413.
	OversizeRequests uint64 `json:"oversize_requests"`
	// DegradedRequests counts requests answered through a breaker
	// fallback lane or version.
	DegradedRequests uint64 `json:"degraded_requests"`
}

// SimCacheSnapshot reports the simulator's sample-memo counters: lookups
// made on cells the server has been asked about before (a cell's first
// request is priced memo-free and counts as neither hit nor miss), the
// samples those cells hold, and the samples dropped by table resets.
type SimCacheSnapshot struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.statsz.observe(time.Since(start), false) }()
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	// The current version always leases: NewWithOptions published v1 and
	// Retire refuses the current version.
	h, err := s.reg.Acquire("")
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	cs := h.Framework().Model.CacheStats()
	h.Release()
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		SimCache: SimCacheSnapshot{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			Entries: cs.Entries, HitRate: cs.HitRate(),
		},
		Endpoints: map[string]EndpointSnapshot{
			"healthz": s.healthz.snapshot(),
			"statsz":  s.statsz.snapshot(),
			"predict": s.predict.snapshot(),
			"modelz":  s.modelz.snapshot(),
		},
		Faults: FaultSnapshot{
			PanicsRecovered:  s.panics.Load(),
			LoadShed:         s.shed.Load(),
			OversizeRequests: s.oversize.Load(),
			DegradedRequests: s.degraded.Load(),
		},
		Batch: s.co.Stats(),
		Lanes: LaneSnapshot{
			DefaultLane: s.lane,
			F32Requests: s.laneF32.Load(),
			F64Requests: s.laneF64.Load(),
		},
		Models:   s.reg.Versions(),
		Breakers: s.breakers.snapshot(),
	})
}

// ModelzRequest is the POST /modelz body: publish the checkpoint at Path
// as the next version; with RetireOld the previous current version is
// drained and removed once its in-flight batches finish.
type ModelzRequest struct {
	Path      string `json:"path"`
	RetireOld bool   `json:"retire_old,omitempty"`
}

// handleModelz lists model versions (GET) and rolls out checkpoints
// (POST). A publish failure leaves the serving set untouched, so a bad
// checkpoint on disk can never take down a healthy server.
func (s *Server) handleModelz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.modelz.observe(time.Since(start), failed) }()
	switch r.Method {
	case http.MethodGet:
		failed = false
		writeJSON(w, http.StatusOK, map[string]any{
			"current":  s.reg.CurrentVersion(),
			"versions": s.reg.Versions(),
			"breakers": s.breakers.snapshot(),
		})
	case http.MethodPost:
		var req ModelzRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
			return
		}
		if req.Path == "" {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing path"})
			return
		}
		prev := s.reg.CurrentVersion()
		v, err := s.reg.PublishFile(req.Path)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "publish failed: " + err.Error()})
			return
		}
		retired := ""
		if req.RetireOld && prev != "" {
			// Blocks until the old version's in-flight batches drain —
			// that is the rollout contract, not a hazard: new requests
			// already lease v.
			if err := s.reg.Retire(prev); err == nil {
				retired = prev
			}
		}
		failed = false
		writeJSON(w, http.StatusOK, map[string]any{
			"published": v,
			"current":   s.reg.CurrentVersion(),
			"retired":   retired,
		})
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET or POST only"})
	}
}

// PredictRequest is the /predict body. A stencil is named (classic
// "star3d2r"-style names) or spelled as raw offsets; exactly one form
// must be used.
type PredictRequest struct {
	// Stencil is a classic stencil name, e.g. "star3d2r".
	Stencil string `json:"stencil,omitempty"`
	// Name, Dims, and Points spell a custom stencil from raw offsets
	// ([dx,dy,dz] triples; dz must be 0 for 2-D).
	Name   string  `json:"name,omitempty"`
	Dims   int     `json:"dims,omitempty"`
	Points [][]int `json:"points,omitempty"`
	// GPU is the target architecture name (P100, V100, 2080Ti, A100).
	GPU string `json:"gpu"`
}

// stencilFromRequest resolves the request's stencil form.
func stencilFromRequest(req PredictRequest) (stencil.Stencil, error) {
	named := req.Stencil != ""
	raw := len(req.Points) > 0
	switch {
	case named && raw:
		return stencil.Stencil{}, fmt.Errorf("give either a stencil name or raw points, not both")
	case named:
		return stencil.ByName(req.Stencil)
	case raw:
		name := req.Name
		if name == "" {
			name = "custom"
		}
		pts := make([]stencil.Point, len(req.Points))
		for i, p := range req.Points {
			if len(p) != 3 {
				return stencil.Stencil{}, fmt.Errorf("point %d has %d coordinates, want [dx,dy,dz]", i, len(p))
			}
			pts[i] = stencil.Point{Dx: p[0], Dy: p[1], Dz: p[2]}
		}
		return stencil.New(name, req.Dims, pts)
	default:
		return stencil.Stencil{}, fmt.Errorf("request names no stencil")
	}
}

// predictStatus maps a prediction error to its HTTP status.
func predictStatus(err error) int {
	switch {
	case errors.Is(err, batch.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		// The request's propagated deadline expired before scoring
		// finished. When the server's own timeout middleware caused the
		// expiry it has already answered 503 and this status is for
		// accounting only; a client-propagated deadline gets the 504.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, errBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrBadRequest):
		// Decided by the pipeline's admission marker, never by error
		// text: server-side failures embed the client-chosen stencil name.
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.predict.observe(time.Since(start), failed) }()

	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}

	// Deadline propagation: X-Deadline-Millis declares how much of the
	// client's time budget remains. A request that arrives with its
	// budget already spent is rejected 504 here — before the admission
	// semaphore, a batch slot, or a model lease. The resulting context
	// travels with the job into batch scoring. The server's own timeout
	// (the TimeoutHandler wrapping this handler) already put its deadline
	// on r.Context(), so only a tighter client budget narrows it; a budget
	// at or beyond the server timeout is left alone (converting one of
	// more than ~292 years to a Duration would overflow negative).
	ctx := r.Context()
	if hdr := r.Header.Get("X-Deadline-Millis"); hdr != "" {
		ms, err := strconv.ParseInt(hdr, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad X-Deadline-Millis: " + err.Error()})
			return
		}
		if ms <= 0 {
			s.predict.deadlineExpired.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline already expired"})
			return
		}
		if ms < s.timeout.Milliseconds() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
	}

	// Admission control: shed load beyond the in-flight cap instead of
	// queueing unboundedly behind the scoring lane.
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server at capacity, retry later"})
		return
	}

	var req PredictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.oversize.Add(1)
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if req.GPU == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing gpu"})
		return
	}
	st, err := stencilFromRequest(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// ?lane=f32|f64 overrides the server's default inference lane.
	query := r.URL.Query()
	lane := s.lane
	if q := query.Get("lane"); q != "" {
		lane, err = ParseLane(q)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
	}

	// Lease a model version: ?model=vN pins one, otherwise the request
	// follows the registry's current pointer. The lease travels with the
	// job through the coalescer and is released after scoring, so a
	// hot-swap can never free a version out from under an in-flight
	// batch.
	h, err := s.reg.Acquire(query.Get("model"))
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, registry.ErrUnknownVersion) || errors.Is(err, registry.ErrRetiring) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}

	// An expired context here (budget spent during decode) must not
	// consume a batch slot; the coalescer would reject it anyway, but
	// checking first keeps the 504 ahead of the admission path.
	if err := ctx.Err(); err != nil {
		h.Release()
		s.predict.deadlineExpired.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline already expired"})
		return
	}

	job := predictJob{h: h, req: core.ServeRequest{GPU: req.GPU, Stencil: st}, lane: lane, ctx: ctx}
	res, err := s.co.Do(ctx, job)
	if err != nil {
		status := predictStatus(err)
		if status == http.StatusGatewayTimeout {
			s.predict.deadlineExpired.Add(1)
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	failed = false
	// Surface where the prediction actually came from; under breaker
	// degradation these differ from what the request asked for. The body
	// is untouched — degraded responses stay bitwise-comparable.
	w.Header().Set("X-Serve-Lane", string(res.lane))
	w.Header().Set("X-Serve-Model", res.version)
	if res.degraded {
		w.Header().Set("X-Serve-Degraded", "true")
	}
	writeJSON(w, http.StatusOK, res.pred)
}
