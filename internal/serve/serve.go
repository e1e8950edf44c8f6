// Package serve exposes a trained StencilMART framework as an HTTP
// prediction service: POST a stencil and a target GPU, get back the
// predicted optimization class, a tuned parameter setting, predicted
// times on every catalog GPU, and the rent-advisor verdict. It never
// trains or profiles; it serves checkpoints.
//
// Every request scores on the framework's compiled float32 models
// (core.Framework.ServePredictBatch). A tree-model request
// (core.Framework.ServeConcurrent) scores on its connection's goroutine;
// nn requests, whose forwards own layer scratch, coalesce into batches on
// one serialized lane (internal/serve/batch).
// Models live in a versioned registry (internal/serve/registry) whose
// refcounted handles let checkpoints hot-swap under load.
//
// Hardening is per request: a deadline (the server's timeout, narrowed by
// X-Deadline-Millis) bounds the body read and travels into scoring,
// excess load is shed with 503 at an in-flight cap, and a scoring panic
// fails only its batch, as a 500 (core's pipeline already turns a model
// panic into its item's error, so that recover is a backstop).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
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

// DefaultMaxInFlight bounds admitted /predict requests — tree requests
// scoring on their connections' goroutines and nn requests queued for the
// lane alike; excess load is shed with 503.
const DefaultMaxInFlight = 64

// DefaultBatchWindow is vestigial (the coalescer has no window); it
// stays only for bench/layers_serve.go, ROADMAP item 22.
const DefaultBatchWindow time.Duration = 0

// DefaultBatchSize caps a coalesced batch.
const DefaultBatchSize = 32

// MaxRequestBytes bounds a /predict body; larger requests get 413.
const MaxRequestBytes = 1 << 20

// Lane and its constants are vestigial: every request scores on the
// compiled f32 models, and /predict ignores ?lane= like any unknown query
// parameter. They stay only for bench/ (bench/serve.go:18,
// bench/fixture.go:207-216, bench/layers_serve.go:236), ROADMAP item 22.
type Lane string

// The two names bench/ passes around.
const (
	LaneF64 Lane = "f64"
	LaneF32 Lane = "f32"
)

// Options tunes the hardened server; zero values select the defaults
// and negative numbers are refused (Validate).
type Options struct {
	// Timeout bounds one request's prediction work (DefaultTimeout if 0).
	Timeout time.Duration
	// MaxInFlight bounds admitted /predict requests (DefaultMaxInFlight
	// if 0); requests beyond it are shed with 503 + Retry-After.
	MaxInFlight int
	// BatchSize caps a coalesced batch (DefaultBatchSize if 0).
	BatchSize int
}

// Validate refuses negative knobs, which replacing silently would hide.
func (o Options) Validate() error {
	switch {
	case o.Timeout < 0:
		return fmt.Errorf("serve: negative timeout %v", o.Timeout)
	case o.MaxInFlight < 0:
		return fmt.Errorf("serve: negative in-flight cap %d", o.MaxInFlight)
	case o.BatchSize < 0:
		return fmt.Errorf("serve: negative batch size %d", o.BatchSize)
	}
	return nil
}

// endpointStats aggregates per-endpoint counters with atomics so the
// stats page never contends with request handling.
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	totalNS  atomic.Int64
	hist     latencyHist
	// deadlineExpired counts requests answered 504 for an expired
	// deadline.
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

// EndpointSnapshot is one endpoint's counters in /statsz; the latency
// quantiles come from a fixed-bucket exponential histogram.
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

// predictJob is one admitted /predict request: its model lease, the
// request, and its context (carrying the deadline into scoring). The
// lease is released once — by scoreBatch or scoreDirect, or where the
// job is refused.
type predictJob struct {
	h   *registry.Handle
	req core.ServeRequest
	ctx context.Context
}

// predictResult is a scored job's prediction plus the model version that
// scored it, which the handler puts in a response header.
type predictResult struct {
	pred    *core.ServePrediction
	version string
}

// predictBatchFn scores one batch of requests against one framework;
// tests substitute doubles that block or panic.
type predictBatchFn func(fw *core.Framework, ctx context.Context, reqs []core.ServeRequest) []core.ServeOutcome

// servePredictBatch is the real scoring step. Its address marks the
// server's predictFn as the default, the only one scored off the lane.
var servePredictBatch predictBatchFn = (*core.Framework).ServePredictBatch

// Server serves predictions from a versioned registry of trained
// frameworks.
type Server struct {
	reg     *registry.Registry
	co      *batch.Coalescer[predictJob, predictResult]
	closed  atomic.Bool // set by Close; refuses direct scoring
	timeout time.Duration
	started time.Time

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

	// predictFn is the batch prediction step for every request, swapped
	// atomically because scoring goroutines read it while tests replace
	// it.
	predictFn atomic.Pointer[predictBatchFn]
}

// New wraps a trained framework in a server with default hardening.
func New(fw *core.Framework, timeout time.Duration) (*Server, error) {
	return NewWithOptions(fw, Options{Timeout: timeout})
}

// NewWithOptions is New with explicit hardening knobs: the framework is
// published as v1 of a fresh registry.
func NewWithOptions(fw *core.Framework, opts Options) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	reg := registry.New()
	if _, err := reg.Publish(fw); err != nil {
		if errors.Is(err, registry.ErrUntrained) {
			return nil, fmt.Errorf("serve: framework has no trained models (train or load a checkpoint first)")
		}
		return nil, fmt.Errorf("serve: %w", err)
	}
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = DefaultBatchSize
	}
	s := &Server{
		reg:      reg,
		timeout:  opts.Timeout,
		started:  time.Now(),
		inflight: make(chan struct{}, opts.MaxInFlight),
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
		s.predictFn.Store(&servePredictBatch)
		return
	}
	s.predictFn.Store(&fn)
}

// Registry exposes the server's model registry for out-of-band rollout.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Close stops scoring: requests not yet scoring — queued for the lane or
// about to score on their connection's goroutine — fail with 503, and the lane
// goroutine exits. The HTTP handler stays mounted but sheds everything;
// use it at process shutdown.
func (s *Server) Close() {
	s.closed.Store(true)
	s.co.Close()
}

// direct reports whether a request leased on h scores on its connection's
// goroutine: with the real predict function (a test double may block or
// panic) on a framework whose models allow concurrent use.
func (s *Server) direct(h *registry.Handle) bool {
	return s.predictFn.Load() == &servePredictBatch && h.Framework().ServeConcurrent()
}

// scoreDirect scores a direct request on its connection's goroutine,
// under the request's own context: refused after Close like a queued
// one, rejected with the context error once expired (504, no scoring
// call), and its lease released on every path.
func (s *Server) scoreDirect(j predictJob) (predictResult, error) {
	defer j.h.Release()
	if s.closed.Load() {
		return predictResult{}, batch.ErrClosed
	}
	if err := j.ctx.Err(); err != nil {
		return predictResult{}, err
	}
	res, err := s.scoreVia(j.ctx, j.h.Framework(), []core.ServeRequest{j.req})
	if err != nil {
		return predictResult{}, err
	}
	return predictResult{pred: res[0].Prediction, version: j.h.Version()}, res[0].Err
}

// scoreBatch is the coalescer's score function. Jobs whose context
// already expired are rejected with the context error (504, no scoring
// call). The survivors group by leased version, each group scores
// through one batched call under the batch's earliest deadline, and all
// leases release on the way out — panics included.
func (s *Server) scoreBatch(jobs []predictJob) []batch.Outcome[predictResult] {
	outs := make([]batch.Outcome[predictResult], len(jobs))
	byVersion := make(map[string][]int)
	var order []string
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
		v := j.h.Version()
		if _, seen := byVersion[v]; !seen {
			order = append(order, v)
		}
		byVersion[v] = append(byVersion[v], i)
	}
	ctx := context.Background()
	if haveDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, earliest)
		defer cancel()
	}
	for _, v := range order {
		s.scoreGroup(ctx, v, byVersion[v], jobs, outs)
	}
	return outs
}

// scoreGroup scores one same-version slice of a batch. Each request keeps
// its own outcome (a 400 stays a 400 in an expired batch); only a scoring
// panic or a mis-shaped result fails the whole group.
func (s *Server) scoreGroup(ctx context.Context, version string, idxs []int, jobs []predictJob, outs []batch.Outcome[predictResult]) {
	defer func() {
		for _, i := range idxs {
			jobs[i].h.Release()
		}
	}()
	reqs := make([]core.ServeRequest, len(idxs))
	for k, i := range idxs {
		reqs[k] = jobs[i].req
	}
	res, err := s.scoreVia(ctx, jobs[idxs[0]].h.Framework(), reqs)
	for k, i := range idxs {
		if err != nil {
			outs[i] = batch.Outcome[predictResult]{Err: err}
			continue
		}
		outs[i] = batch.Outcome[predictResult]{
			Value: predictResult{pred: res[k].Prediction, version: version},
			Err:   res[k].Err,
		}
	}
}

// scoreVia runs one batched scoring call on fw through predictFn, which
// tests substitute, converting a panic or mis-shaped result into an error
// for the whole group.
func (s *Server) scoreVia(ctx context.Context, fw *core.Framework, reqs []core.ServeRequest) (res []core.ServeOutcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			res, err = nil, fmt.Errorf("internal error: predict panicked: %v", v)
		}
	}()
	res = (*s.predictFn.Load())(fw, ctx, reqs)
	if len(res) != len(reqs) {
		return nil, fmt.Errorf("internal error: predict returned %d outcomes for %d requests", len(res), len(reqs))
	}
	return res, nil
}

// Handler returns the service's HTTP handler, with panic recovery around
// everything.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/modelz", s.handleModelz)
	mux.HandleFunc("/predict", s.handlePredict)
	return s.recoverPanics(mux)
}

// recoverPanics converts a panicking handler into a 500 JSON error and a
// counted fault instead of a closed connection.
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

// Run serves on addr until ctx is cancelled, then shuts down gracefully.
// The bound address (":0" picks a port) is logged as "serving on
// http://ADDR".
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

// StatsResponse is the /statsz body: sim memo counters, per-endpoint
// latencies, coalescing behavior and the registry's live versions.
type StatsResponse struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	SimCache      SimCacheSnapshot            `json:"sim_cache"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Faults        FaultSnapshot               `json:"faults"`
	// Batch counts coalesced requests only: nn models' (and test
	// doubles'); tree requests score off the lane.
	Batch  batch.Stats            `json:"batch"`
	Models []registry.VersionInfo `json:"models"`
}

// FaultSnapshot reports the hardening counters.
type FaultSnapshot struct {
	// PanicsRecovered counts handler panics converted to 500 responses.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// LoadShed counts /predict requests refused with 503 at capacity.
	LoadShed uint64 `json:"load_shed"`
	// OversizeRequests counts bodies refused with 413.
	OversizeRequests uint64 `json:"oversize_requests"`
	// DegradedRequests is always 0: nothing reroutes a request. It stays
	// only for bench/, ROADMAP item 22.
	DegradedRequests uint64 `json:"degraded_requests"`
}

// SimCacheSnapshot reports the simulator's sample-memo counters (a
// cell's first request is priced memo-free and counts as neither hit nor
// miss).
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
		},
		Batch:  s.co.Stats(),
		Models: s.reg.Versions(),
	})
}

// ModelzRequest is the POST /modelz body: publish the checkpoint at Path
// as the next version, and with RetireOld drain and remove the previous.
type ModelzRequest struct {
	Path      string `json:"path"`
	RetireOld bool   `json:"retire_old,omitempty"`
}

// handleModelz lists model versions (GET) and rolls out checkpoints
// (POST); a failed publish leaves the serving set untouched.
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
		// writeExpired answers 503 instead past the server's own timeout.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrBadRequest):
		// The pipeline's admission marker, never error text.
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// timeoutBody answers a request past the server's own timeout, written
// raw: clients have always received exactly these bytes, with no newline.
const timeoutBody = `{"error":"prediction timed out"}`

// writeExpired answers and counts a request whose deadline passed: 503
// with timeoutBody past the server's own deadline, else 504 with msg (the
// client's budget or a batchmate's fired). The clock decides, not
// context.Cause, which a batch's context or a read deadline can outrun.
func (s *Server) writeExpired(w http.ResponseWriter, serverDeadline time.Time, msg string) {
	s.predict.deadlineExpired.Add(1)
	if time.Now().Before(serverDeadline) {
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: msg})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, timeoutBody)
}

// handlePredict answers /predict on the connection's goroutine, under a
// context deadline that bounds the body read and travels into scoring.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.predict.observe(time.Since(start), failed) }()

	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}

	// Deadline propagation: X-Deadline-Millis is the client's remaining
	// budget. A spent one is rejected 504 here, before admission or a
	// model lease. Only a budget tighter than the server's timeout narrows
	// the deadline (one beyond it is left alone: ~292 years would overflow
	// a Duration).
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	serverDeadline, _ := ctx.Deadline()
	if hdr := r.Header.Get("X-Deadline-Millis"); hdr != "" {
		ms, err := strconv.ParseInt(hdr, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad X-Deadline-Millis: " + err.Error()})
			return
		}
		if ms <= 0 {
			s.writeExpired(w, serverDeadline, "deadline already expired")
			return
		}
		if ms < s.timeout.Milliseconds() {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
	}

	// Admission control: shed load beyond the in-flight cap instead of
	// scoring or queueing without bound.
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server at capacity, retry later"})
		return
	}

	// A client that trickles its body cannot hold an in-flight slot past
	// the deadline. (A test recorder has no connection to set it on.)
	rc := http.NewResponseController(w)
	deadline, _ := ctx.Deadline()
	rc.SetReadDeadline(deadline)
	var req PredictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			// The deadline stays set: net/http's drain of the unread body
			// fails at once and the connection closes after this answer.
			s.writeExpired(w, serverDeadline, "deadline expired reading the request body")
		case errors.As(err, &tooBig):
			s.oversize.Add(1)
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		}
		return
	}
	rc.SetReadDeadline(time.Time{})
	if req.GPU == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing gpu"})
		return
	}
	st, err := stencilFromRequest(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// Lease a model version: ?model=vN pins one, otherwise the request
	// follows the registry's current pointer. The lease travels with the
	// job and is released after scoring, so a hot-swap can never free a
	// version out from under an in-flight request. Other query parameters
	// (?lane= among them) are ignored.
	h, err := s.reg.Acquire(r.URL.Query().Get("model"))
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, registry.ErrUnknownVersion) || errors.Is(err, registry.ErrRetiring) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}

	// An expired context here (budget spent during decode) must not
	// reach scoring; scoreBatch and scoreDirect would reject it anyway,
	// but checking first keeps the 504 ahead of the admission path.
	if err := ctx.Err(); err != nil {
		h.Release()
		s.writeExpired(w, serverDeadline, "deadline already expired")
		return
	}

	job := predictJob{h: h, req: core.ServeRequest{GPU: req.GPU, Stencil: st}, ctx: ctx}
	var res predictResult
	if s.direct(h) {
		res, err = s.scoreDirect(job)
	} else {
		res, err = s.co.Do(ctx, job)
	}
	if err != nil {
		if status := predictStatus(err); status == http.StatusGatewayTimeout {
			s.writeExpired(w, serverDeadline, err.Error())
		} else {
			writeJSON(w, status, errorBody{Error: err.Error()})
		}
		return
	}
	failed = false
	// Name the model version that scored the request; the body stays the
	// pipeline's.
	w.Header().Set("X-Serve-Model", res.version)
	writeJSON(w, http.StatusOK, res.pred)
}
