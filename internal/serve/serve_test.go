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
	"testing"
	"time"

	"stencilmart/internal/core"
)

// testServer trains one smoke-sized framework and wraps it; shared by
// all tests read-only (the server serializes predict internally).
var (
	srvOnce sync.Once
	srvFw   *core.Framework
	srvInst *Server
	srvErr  error
)

func testServer(t *testing.T) *Server {
	t.Helper()
	srvOnce.Do(func() {
		fw, err := core.Build(context.Background(), core.SmokeConfig())
		if err != nil {
			srvErr = err
			return
		}
		if err := fw.TrainAll(context.Background(), core.ClassGBDT, core.RegGB); err != nil {
			srvErr = err
			return
		}
		srvFw = fw
		srvInst, srvErr = New(fw, 0)
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvInst
}

// testFramework is the trained framework behind testServer.
func testFramework(t *testing.T) *core.Framework {
	t.Helper()
	testServer(t)
	return srvFw
}

func TestNewRequiresTrainedFramework(t *testing.T) {
	fw, err := core.Build(context.Background(), core.SmokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(fw, 0); err == nil {
		t.Fatal("untrained framework accepted")
	}
}

// TestNewRefusesNegativeOptions: zero selects each default, a negative
// number is refused instead of silently replaced.
func TestNewRefusesNegativeOptions(t *testing.T) {
	fw := testFramework(t)
	for _, opts := range []Options{{Timeout: -time.Second}, {MaxInFlight: -1}, {BatchSize: -3}} {
		if s, err := NewWithOptions(fw, opts); err == nil {
			s.Close()
			t.Errorf("%+v accepted", opts)
		}
	}
}

func TestHealthz(t *testing.T) {
	h := testServer(t).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz gave %d", rec.Code)
	}
}

func postPredict(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("response %q is not JSON: %v", rec.Body.String(), err)
	}
	return rec, out
}

func TestPredictNamedStencil(t *testing.T) {
	h := testServer(t).Handler()
	rec, out := postPredict(t, h, `{"stencil":"star2d2r","gpu":"V100"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	for _, field := range []string{"stencil", "gpu", "class", "proba", "oc", "params", "tuned_seconds", "arch_names", "predicted_seconds", "advice"} {
		if _, ok := out[field]; !ok {
			t.Errorf("response missing %q: %v", field, out)
		}
	}
	if out["gpu"] != "V100" {
		t.Errorf("gpu echo %v", out["gpu"])
	}
	times, ok := out["predicted_seconds"].([]any)
	if !ok || len(times) != 4 {
		t.Fatalf("predicted_seconds %v", out["predicted_seconds"])
	}
	for _, v := range times {
		if f, ok := v.(float64); !ok || f <= 0 {
			t.Fatalf("non-positive predicted time %v", v)
		}
	}
}

func TestPredictRawOffsets(t *testing.T) {
	h := testServer(t).Handler()
	body := `{"name":"probe","dims":2,"points":[[0,0,0],[1,0,0],[-1,0,0],[0,1,0],[0,-1,0]],"gpu":"A100"}`
	rec, out := postPredict(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	if out["stencil"] != "probe" {
		t.Errorf("stencil echo %v", out["stencil"])
	}
}

func TestPredictBadRequests(t *testing.T) {
	h := testServer(t).Handler()
	cases := []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"no gpu", `{"stencil":"star2d1r"}`},
		{"unknown gpu", `{"stencil":"star2d1r","gpu":"H100"}`},
		{"unknown stencil", `{"stencil":"hex2d1r","gpu":"V100"}`},
		{"both forms", `{"stencil":"star2d1r","points":[[0,0,0]],"dims":2,"gpu":"V100"}`},
		{"bad point arity", `{"points":[[0,0]],"dims":2,"gpu":"V100"}`},
		{"bad dims", `{"points":[[0,0,0]],"dims":5,"gpu":"V100"}`},
		// |math.MinInt| does not fit in an int: as dx this offset was
		// served, as dy it overran the classifier encoding (500).
		{"min-int dx", `{"name":"m","dims":2,"points":[[-9223372036854775808,0,0]],"gpu":"V100"}`},
		{"min-int dy", `{"name":"m","dims":2,"points":[[0,-9223372036854775808,0]],"gpu":"V100"}`},
		{"unknown field", `{"stencil":"star2d1r","gpu":"V100","oops":1}`},
		{"not json", `star2d1r please`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, out := postPredict(t, h, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d (%v), want 400", rec.Code, out)
			}
			if _, ok := out["error"]; !ok {
				t.Fatalf("error body missing: %v", out)
			}
		})
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/predict", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict gave %d", rec.Code)
	}
}

// TestPredictRefusesNameAliases: a named stencil is looked up by its
// exact identifier. These spellings once parsed as the canonical stencil
// (a scanf-style parse skipped spaces, signs and leading zeros and
// ignored trailing text) and were served 200; each is a 400 now.
func TestPredictRefusesNameAliases(t *testing.T) {
	h := testServer(t).Handler()
	for _, name := range []string{"star2d1rjunk", "star+2d01r", "box 3d2r", "cross3d 4r", "star2d1r\n"} {
		body, err := json.Marshal(PredictRequest{Stencil: name, GPU: "V100"})
		if err != nil {
			t.Fatal(err)
		}
		if rec, out := postPredict(t, h, string(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("stencil %q gave %d (%v), want 400", name, rec.Code, out)
		}
	}
}

// TestPredictConcurrent hammers the handler from many goroutines: the
// internal mutex must keep the non-goroutine-safe models correct, and
// identical requests must return identical bodies.
func TestPredictConcurrent(t *testing.T) {
	h := testServer(t).Handler()
	const workers = 8
	bodies := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"stencil":"box2d1r","gpu":"P100"}`))
			h.ServeHTTP(rec, req)
			if rec.Code == http.StatusOK {
				bodies[i] = rec.Body.String()
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if bodies[i] == "" {
			t.Fatalf("worker %d failed", i)
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("concurrent responses diverge:\n%s\n%s", bodies[0], bodies[i])
		}
	}
}

func TestStatszCountsRequests(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	// Two predicts to move the counters: a sim cell memoizes from its
	// second lookup, and under -shuffle no earlier test may have looked
	// this one up yet (we only assert monotonic, well-formed output).
	postPredict(t, h, `{"stencil":"star2d1r","gpu":"V100"}`)
	postPredict(t, h, `{"stencil":"star2d1r","gpu":"V100"}`)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Endpoints["predict"].Requests == 0 {
		t.Error("predict counter did not move")
	}
	if st.SimCache.Hits+st.SimCache.Misses == 0 {
		t.Error("sim cache counters empty after prediction work")
	}
	// Repeating an identical request must hit the sim memo cache (the
	// tuning seed derives from the request).
	before := st.SimCache.Hits
	postPredict(t, h, `{"stencil":"star2d1r","gpu":"V100"}`)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SimCache.Hits <= before {
		t.Errorf("repeated request did not hit the sim cache (%d -> %d)", before, st.SimCache.Hits)
	}
}

// TestRunServesAndShutsDown exercises the real listener path: random
// port, health check over TCP, graceful shutdown via context cancel.
func TestRunServesAndShutsDown(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan string, 1)
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if strings.HasPrefix(line, "serving on http://") {
			addrCh <- strings.TrimPrefix(line, "serving on ")
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, "127.0.0.1:0", logf) }()

	var base string
	select {
	case base = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never announced its address")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP gave %d", resp.StatusCode)
	}

	var buf bytes.Buffer
	buf.WriteString(`{"stencil":"star3d1r","gpu":"A100"}`)
	resp2, err := http.Post(base+"/predict", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("predict over TCP gave %d", resp2.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}
