package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/stencil"
	"stencilmart/internal/testutil"
)

// serialWant encodes the fault-free f64 ground truth for each request
// body, exactly as the handler encodes it (json.Encoder, trailing
// newline).
func serialWant(t *testing.T, bodies []string) map[string][]byte {
	t.Helper()
	fw := testFramework(t)
	want := make(map[string][]byte, len(bodies))
	for _, body := range bodies {
		var req PredictRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		st, err := stencilFromRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := fw.ServePredict(req.GPU, st)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(pred); err != nil {
			t.Fatal(err)
		}
		want[body] = buf.Bytes()
	}
	return want
}

// panicBurst returns a scorePanic hook that panics the scoring calls
// at site numbered after through after+burst-1 (0-based, counting only
// that site's calls) and no others.
func panicBurst(after, burst int, site string) func(string) bool {
	var calls atomic.Int64
	return func(s string) bool {
		if s != site {
			return false
		}
		n := int(calls.Add(1) - 1)
		return n >= after && n < after+burst
	}
}

// TestChaosServeDifferential drives concurrent clients through a server
// whose scoring path takes a burst of injected panics. Every client
// retries until it completes, and every completed response must be
// bitwise-identical to the fault-free run. A panicking batch fails at
// most its own requests. The burst is sized below the breaker threshold,
// so this run also proves breakers don't trip on sub-threshold fault
// stretches.
func TestChaosServeDifferential(t *testing.T) {
	fw := testFramework(t)
	bodies := diffBodies(t)
	want := serialWant(t, bodies)
	const batchSize = 8
	const burst = 2 // below breakerThreshold: no trip
	const maxAttempts = 10

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			testutil.WithGOMAXPROCS(t, procs, func() {
				s, err := NewWithOptions(fw, Options{BatchSize: batchSize, MaxInFlight: 4 * len(bodies)})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				s.scorePanic = panicBurst(2, burst, "f64/v1")
				h := s.Handler()

				type report struct {
					body string
					bad  int
					err  error
				}
				reports := make(chan report, len(bodies))
				var wg sync.WaitGroup
				for _, body := range bodies {
					wg.Add(1)
					go func(body string) {
						defer wg.Done()
						rep := report{body: body}
						defer func() { reports <- rep }()
						for attempt := 0; attempt < maxAttempts; attempt++ {
							rec := httptest.NewRecorder()
							h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
							if rec.Code != http.StatusOK {
								rep.bad++
								continue
							}
							// A completed response must be bitwise-identical
							// to the fault-free run — faults may fail
							// requests, never corrupt them.
							if got := rec.Body.Bytes(); !bytes.Equal(got, want[body]) {
								rep.err = fmt.Errorf("completed response diverges from fault-free run:\nwant %q\ngot  %q", want[body], got)
							}
							return
						}
						rep.err = fmt.Errorf("request never completed in %d attempts", maxAttempts)
					}(body)
				}
				wg.Wait()
				close(reports)

				totalBad := 0
				for rep := range reports {
					if rep.err != nil {
						t.Errorf("%s: %v", rep.body, rep.err)
					}
					totalBad += rep.bad
				}

				if p := s.panics.Load(); p != burst {
					t.Fatalf("recovered panics %d, want the full burst of %d", p, burst)
				}
				// Error budget: every failed attempt traces to a scoring
				// panic that failed at most one whole batch.
				if bound := burst * batchSize; totalBad > bound {
					t.Fatalf("%d failed attempts exceed the injected-fault bound %d", totalBad, bound)
				}
				// Sub-threshold faults must not trip breakers or degrade
				// anything.
				for _, b := range s.breakers.snapshot() {
					if b.State != "closed" || b.Trips != 0 {
						t.Fatalf("breaker %s/%s = %+v, want closed and untripped", b.Version, b.Lane, b)
					}
				}
				if d := s.degraded.Load(); d != 0 {
					t.Fatalf("%d degraded responses in a sub-threshold run", d)
				}
			})
		})
	}
}

// TestBreakerTripFallbackRecovery is the f32 breaker drill: a
// deterministic burst of scoring panics on (v1, f32) trips the breaker
// after exactly breakerThreshold consecutive failures, every
// affected request is served by the same version's f64 lane with zero
// failures (bodies bitwise-identical to the fault-free f64 run, degraded
// headers set), the open breaker short-circuits, and after the cooldown
// a half-open probe restores the f32 lane.
func TestBreakerTripFallbackRecovery(t *testing.T) {
	fw := testFramework(t)
	const cooldown = 100 * time.Millisecond
	s, err := NewWithOptions(fw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.breakers.cooldown = cooldown
	s.scorePanic = panicBurst(1, 3, "f32/v1")
	h := s.Handler()

	const body = `{"stencil":"star2d1r","gpu":"V100"}`
	post := func(lane string) (*httptest.ResponseRecorder, []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict?lane="+lane, strings.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec, rec.Body.Bytes()
	}

	// Fault-free baselines: f64 first (site f64/v1 is never targeted),
	// then the f32 burst site's call 0, which is clean by construction.
	recF64, wantF64 := post("f64")
	if recF64.Code != http.StatusOK {
		t.Fatalf("f64 baseline gave %d: %s", recF64.Code, wantF64)
	}
	recF32, wantF32 := post("f32")
	if recF32.Code != http.StatusOK {
		t.Fatalf("f32 baseline gave %d: %s", recF32.Code, wantF32)
	}
	if got := recF32.Header().Get("X-Serve-Lane"); got != "f32" {
		t.Fatalf("f32 baseline served by lane %q", got)
	}

	// The burst: three consecutive f32 scoring panics. Every request must
	// still succeed — served degraded by the f64 fallback, bitwise equal
	// to the fault-free f64 run.
	for i := 0; i < 3; i++ {
		rec, got := post("f32")
		if rec.Code != http.StatusOK {
			t.Fatalf("burst request %d failed with %d: %s — breaker fallback must keep requests whole", i, rec.Code, got)
		}
		if rec.Header().Get("X-Serve-Degraded") != "true" || rec.Header().Get("X-Serve-Lane") != "f64" {
			t.Fatalf("burst request %d headers lane=%q degraded=%q, want f64 degraded",
				i, rec.Header().Get("X-Serve-Lane"), rec.Header().Get("X-Serve-Degraded"))
		}
		testutil.AssertSameBytes(t, fmt.Sprintf("degraded body %d", i), wantF64, got)
	}

	// The third failure tripped the breaker: now open, short-circuiting
	// straight to the fallback without consulting the f32 lane.
	rec, got := post("f32")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Serve-Degraded") != "true" {
		t.Fatalf("short-circuit request gave %d degraded=%q", rec.Code, rec.Header().Get("X-Serve-Degraded"))
	}
	testutil.AssertSameBytes(t, "short-circuit body", wantF64, got)

	br := breakerByKey(t, s, "v1", LaneF32)
	if br.State != "open" || br.Trips != 1 || br.ShortCircuits != 1 || br.FallbackServed != 4 {
		t.Fatalf("post-trip breaker %+v, want open with 1 trip, 1 short-circuit, 4 fallback-served", br)
	}
	if d := s.degraded.Load(); d != 4 {
		t.Fatalf("degraded counter %d, want 4", d)
	}

	// Cooldown elapses; the next request is the half-open probe. The
	// burst is exhausted, so the probe succeeds and closes the breaker —
	// the f32 lane is back, bitwise where it left off.
	time.Sleep(cooldown + 20*time.Millisecond)
	rec, got = post("f32")
	if rec.Code != http.StatusOK {
		t.Fatalf("probe request gave %d: %s", rec.Code, got)
	}
	if rec.Header().Get("X-Serve-Lane") != "f32" || rec.Header().Get("X-Serve-Degraded") != "" {
		t.Fatalf("recovered request headers lane=%q degraded=%q, want clean f32",
			rec.Header().Get("X-Serve-Lane"), rec.Header().Get("X-Serve-Degraded"))
	}
	testutil.AssertSameBytes(t, "recovered body", wantF32, got)

	br = breakerByKey(t, s, "v1", LaneF32)
	if br.State != "closed" || br.Probes != 1 {
		t.Fatalf("post-recovery breaker %+v, want closed after 1 probe", br)
	}
	if st := statsOf(t, h); st.Faults.DegradedRequests != 4 || st.Faults.PanicsRecovered != 3 {
		t.Fatalf("faults %+v, want 4 degraded and 3 recovered panics", st.Faults)
	}
}

// breakerByKey finds one breaker's snapshot on the server.
func breakerByKey(t *testing.T, s *Server, version string, lane Lane) BreakerSnapshot {
	t.Helper()
	for _, b := range s.breakers.snapshot() {
		if b.Version == version && b.Lane == lane {
			return b
		}
	}
	t.Fatalf("no breaker for (%s, %s) in %+v", version, lane, s.breakers.snapshot())
	return BreakerSnapshot{}
}

// TestBreakerVersionFallbackAndRetire drills the cross-version fallback:
// with v2 current and its f64 lane poisoned, requests degrade to v1 with
// zero failures; once v1 retires mid-degradation the fallback walk finds
// nothing — requests fail bounded (503, never a torn read of a retired
// framework) — and after the cooldown a half-open probe restores v2.
func TestBreakerVersionFallbackAndRetire(t *testing.T) {
	fw := testFramework(t)
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	if err := fw.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}

	const cooldown = 100 * time.Millisecond
	s, err := NewWithOptions(fw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.breakers.cooldown = cooldown
	// v2 is a distinct framework loaded from the checkpoint; requests
	// follow the current pointer to it.
	if _, err := s.Registry().PublishFile(ckpt); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Poison v2's scoring only: v1 (the server's own framework) scores
	// for real, so the version-fallback path stays healthy.
	s.setPredict(func(target *core.Framework, ctx context.Context, reqs []core.ServeRequest) []core.ServeOutcome {
		if target != fw {
			panic("poisoned v2 checkpoint")
		}
		return target.ServePredictBatch(ctx, reqs)
	})

	const body = `{"stencil":"star2d1r","gpu":"V100"}`
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec
	}

	// Three consecutive v2 failures: each request degrades to v1, the
	// breaker trips on the third.
	for i := 0; i < 3; i++ {
		rec := post()
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d during v2 poisoning gave %d: %s", i, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("X-Serve-Model") != "v1" || rec.Header().Get("X-Serve-Degraded") != "true" {
			t.Fatalf("request %d served by %q degraded=%q, want degraded v1",
				i, rec.Header().Get("X-Serve-Model"), rec.Header().Get("X-Serve-Degraded"))
		}
	}
	if br := breakerByKey(t, s, "v2", LaneF64); br.State != "open" {
		t.Fatalf("v2 breaker %+v, want open", br)
	}

	// Retire v1 while the breaker is redirecting to it (no refs are held
	// between requests, so Retire completes). The fallback walk must not
	// resurrect it: with no healthy fallback left, requests fail bounded.
	if err := s.Registry().Retire("v1"); err != nil {
		t.Fatal(err)
	}
	rec := post()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request with retired fallback gave %d: %s, want 503", rec.Code, rec.Body.String())
	}

	// Cooldown elapses; un-poison v2 and let the half-open probe restore
	// it.
	s.setPredict(nil)
	time.Sleep(cooldown + 20*time.Millisecond)
	rec = post()
	if rec.Code != http.StatusOK || rec.Header().Get("X-Serve-Model") != "v2" || rec.Header().Get("X-Serve-Degraded") != "" {
		t.Fatalf("post-recovery request gave %d model=%q degraded=%q, want clean v2",
			rec.Code, rec.Header().Get("X-Serve-Model"), rec.Header().Get("X-Serve-Degraded"))
	}
	if br := breakerByKey(t, s, "v2", LaneF64); br.State != "closed" {
		t.Fatalf("v2 breaker after recovery %+v, want closed", br)
	}
}

// TestDeadlineExpiredRejectedAtAdmission: a request arriving with its
// deadline budget already spent is answered 504 before it takes a batch
// slot or a model lease; malformed budgets are 400s.
func TestDeadlineExpiredRejectedAtAdmission(t *testing.T) {
	s := hardenedServer(t, Options{})
	h := s.Handler()

	post := func(deadline string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"stencil":"star2d1r","gpu":"V100"}`))
		req.Header.Set("X-Deadline-Millis", deadline)
		h.ServeHTTP(rec, req)
		return rec
	}

	for _, expired := range []string{"0", "-25"} {
		rec := post(expired)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("X-Deadline-Millis=%s gave %d, want 504", expired, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("504 content type %q", ct)
		}
	}
	if rec := post("soon"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed deadline gave %d, want 400", rec.Code)
	}

	// Nothing reached the coalescer, and the expiries were counted.
	if st := s.co.Stats(); st.Requests != 0 || st.Batches != 0 {
		t.Fatalf("batch stats %+v, want zero admitted requests", st)
	}
	stats := statsOf(t, h)
	if got := stats.Endpoints["predict"].DeadlineExpired; got != 2 {
		t.Fatalf("deadline_expired = %d, want 2", got)
	}

	// A generous budget serves normally, and so does one whose Duration
	// would overflow (~317 years): a budget beyond the server's own
	// timeout narrows nothing and expires nothing.
	for _, live := range []string{"30000", "10000000000000"} {
		if rec := post(live); rec.Code != http.StatusOK {
			t.Fatalf("X-Deadline-Millis=%s gave %d: %s", live, rec.Code, rec.Body.String())
		}
	}
	if got := statsOf(t, h).Endpoints["predict"].DeadlineExpired; got != 2 {
		t.Fatalf("deadline_expired = %d after live budgets, want still 2", got)
	}
}

// TestDeadlineExpiresInQueue: a request whose budget runs out while its
// batch waits behind a slow one is rejected by the scorer without a
// model call — the model lease it held is released and the prediction
// path never sees its GPU.
func TestDeadlineExpiresInQueue(t *testing.T) {
	s := hardenedServer(t, Options{Timeout: 10 * time.Second})
	fw := testFramework(t)
	var mu sync.Mutex
	seen := map[string]bool{}
	release := make(chan struct{})
	var once sync.Once
	s.setPredict(serialStub(func(arch string, st stencil.Stencil) (*core.ServePrediction, error) {
		mu.Lock()
		seen[arch] = true
		mu.Unlock()
		once.Do(func() { <-release })
		return fw.ServePredict(arch, st)
	}))
	h := s.Handler()

	// First request blocks the scoring lane.
	firstDone := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"stencil":"star2d1r","gpu":"V100"}`))
		h.ServeHTTP(rec, req)
		firstDone <- rec.Code
	}()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen["V100"]
	})

	// Second request enters the queue with a 50ms budget, which expires
	// while the lane is blocked.
	secondDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"stencil":"star2d1r","gpu":"P100"}`))
		req.Header.Set("X-Deadline-Millis", "50")
		h.ServeHTTP(rec, req)
		secondDone <- rec
	}()

	rec := <-secondDone // its deadline fires while queued
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued request past deadline gave %d: %s, want 504", rec.Code, rec.Body.String())
	}
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("blocking request gave %d", code)
	}

	// Let the scorer drain the second batch, then prove it skipped the
	// expired job: the predict stub never saw P100.
	waitFor(t, func() bool { return s.co.Stats().Batches >= 2 })
	mu.Lock()
	sawP100 := seen["P100"]
	mu.Unlock()
	if sawP100 {
		t.Fatal("expired request was scored anyway — it must be rejected before the model call")
	}
	if got := statsOf(t, h).Endpoints["predict"].DeadlineExpired; got != 1 {
		t.Fatalf("deadline_expired = %d, want 1", got)
	}
}

// waitFor polls cond until it holds or a generous timeout trips.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimeoutBodyContentType: the /predict timeout response must carry
// the JSON error with an application/json Content-Type — TimeoutHandler
// writes the body without one, and Go's sniffer would otherwise serve it
// as text/plain.
func TestTimeoutBodyContentType(t *testing.T) {
	s := hardenedServer(t, Options{Timeout: 30 * time.Millisecond})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	s.setPredict(serialStub(func(arch string, st stencil.Stencil) (*core.ServePrediction, error) {
		<-release
		return nil, fmt.Errorf("late")
	}))
	h := s.Handler()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"stencil":"star2d1r","gpu":"V100"}`))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out predict gave %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("timeout response Content-Type %q, want application/json", ct)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("timeout body %q is not JSON: %v", rec.Body.String(), err)
	}
	if _, ok := out["error"]; !ok {
		t.Fatalf("timeout body %v has no error field", out)
	}
}
