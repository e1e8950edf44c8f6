package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// panicBurst wraps the real f64 batch pipeline in a double that panics
// on calls after through after+burst-1 (0-based) and scores every other
// call for real.
func panicBurst(after, burst int) predictBatchFn {
	var calls atomic.Int64
	return func(fw *core.Framework, ctx context.Context, reqs []core.ServeRequest) []core.ServeOutcome {
		if n := int(calls.Add(1) - 1); n >= after && n < after+burst {
			panic("injected scoring fault")
		}
		return fw.ServePredictBatch(ctx, reqs)
	}
}

// TestChaosServeDifferential drives concurrent clients through a server
// whose scoring path takes a burst of injected panics. Every client
// retries until it completes, and every completed response must be
// bitwise-identical to the fault-free run. A panicking batch fails at
// most its own requests, and the server keeps serving.
func TestChaosServeDifferential(t *testing.T) {
	fw := testFramework(t)
	bodies := diffBodies(t)
	want := serialWant(t, bodies)
	const batchSize = 8
	const burst = 2
	const maxAttempts = 10

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			testutil.WithGOMAXPROCS(t, procs, func() {
				s, err := NewWithOptions(fw, Options{BatchSize: batchSize, MaxInFlight: 4 * len(bodies)})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				s.setPredict(panicBurst(2, burst))
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
			})
		})
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

// TestExpiredBatchKeepsEachError: a batch whose deadline expires while
// it scores hands each request its own outcome. A batchmate the
// pipeline refused at admission (an unknown GPU) is still a 400; the
// live request gets the context error, answered 504 and counted in
// deadline_expired.
func TestExpiredBatchKeepsEachError(t *testing.T) {
	s := hardenedServer(t, Options{})
	release := make(chan struct{})
	var calls atomic.Int64
	var batchSize atomic.Int64
	s.setPredict(func(fw *core.Framework, ctx context.Context, reqs []core.ServeRequest) []core.ServeOutcome {
		if calls.Add(1) == 1 {
			<-release // hold the lane so the next two requests share a batch
			return fw.ServePredictBatch(ctx, reqs)
		}
		// The batch's deadline runs out during scoring.
		batchSize.Store(int64(len(reqs)))
		expired, cancel := context.WithDeadline(ctx, time.Unix(0, 0))
		defer cancel()
		return fw.ServePredictBatch(expired, reqs)
	})
	h := s.Handler()

	post := func(body string, done chan<- *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
		done <- rec
	}
	blocker := make(chan *httptest.ResponseRecorder, 1)
	go post(`{"stencil":"star2d1r","gpu":"V100"}`, blocker)
	waitFor(t, func() bool { return calls.Load() == 1 })

	unknown := make(chan *httptest.ResponseRecorder, 1)
	liveReq := make(chan *httptest.ResponseRecorder, 1)
	go post(`{"stencil":"star2d1r","gpu":"H100"}`, unknown)
	go post(`{"stencil":"star2d1r","gpu":"P100"}`, liveReq)
	waitFor(t, func() bool { return s.co.Stats().Queued == 2 })
	close(release)

	if rec := <-blocker; rec.Code != http.StatusOK {
		t.Fatalf("blocking request gave %d: %s", rec.Code, rec.Body.String())
	}
	if rec := <-unknown; rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown GPU in an expired batch gave %d: %s, want 400", rec.Code, rec.Body.String())
	}
	if rec := <-liveReq; rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("live request in an expired batch gave %d: %s, want 504", rec.Code, rec.Body.String())
	}
	if n := batchSize.Load(); n != 2 {
		t.Fatalf("expired batch held %d requests, want both", n)
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
