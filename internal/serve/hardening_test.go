package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stencilmart/internal/core"
	"stencilmart/internal/stencil"
)

// hardenedServer wraps the shared trained framework in a fresh Server so
// fault counters and prediction stubs never leak between tests.
func hardenedServer(t *testing.T, opts Options) *Server {
	t.Helper()
	fw := testFramework(t)
	s, err := NewWithOptions(fw, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// serialStub adapts a one-request prediction double to the batch predict
// signature, preserving the old stub style of these tests.
func serialStub(fn func(archName string, st stencil.Stencil) (*core.ServePrediction, error)) predictBatchFn {
	return func(fw *core.Framework, ctx context.Context, reqs []core.ServeRequest) []core.ServeOutcome {
		outs := make([]core.ServeOutcome, len(reqs))
		for i, r := range reqs {
			p, err := fn(r.GPU, r.Stencil)
			outs[i] = core.ServeOutcome{Prediction: p, Err: err}
		}
		return outs
	}
}

// statsOf fetches and decodes /statsz.
func statsOf(t *testing.T, h http.Handler) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statsz status %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPredictPanicRecovered: a panicking prediction becomes a 500 JSON
// error and a counted fault, and the server keeps serving afterwards.
func TestPredictPanicRecovered(t *testing.T) {
	s := hardenedServer(t, Options{})
	s.setPredict(serialStub(func(string, stencil.Stencil) (*core.ServePrediction, error) {
		panic("poisoned checkpoint")
	}))
	h := s.Handler()

	rec, out := postPredict(t, h, `{"stencil":"star2d1r","gpu":"V100"}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking predict gave %d (%v), want 500", rec.Code, out)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "internal error") {
		t.Fatalf("error body %v does not say internal error", out)
	}

	// The server survived: health and stats still answer, and the panic
	// was counted.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("healthz after panic gave %d", rec2.Code)
	}
	st := statsOf(t, h)
	if st.Faults.PanicsRecovered != 1 {
		t.Fatalf("faults %+v, want exactly one recovered panic", st.Faults)
	}

	// Un-poison the server and predict for real — no lasting damage.
	s.setPredict(nil)
	rec3, out3 := postPredict(t, h, `{"stencil":"star2d1r","gpu":"V100"}`)
	if rec3.Code != http.StatusOK {
		t.Fatalf("predict after recovery gave %d (%v)", rec3.Code, out3)
	}
}

// TestPredictStatusIgnoresErrorText: the 400 class is decided by the
// pipeline's ErrBadRequest marker, not by words in the error text. A
// server-side failure on a stencil the client named "unknown7pt" embeds
// that name in its message and must still be a 500 (a stubbed tuning
// failure); a real admission failure on the same stencil stays a 400.
func TestPredictStatusIgnoresErrorText(t *testing.T) {
	s := hardenedServer(t, Options{})
	h := s.Handler()
	body := func(gpu string) string {
		return `{"name":"unknown7pt","dims":2,"points":[[0,0,0],[1,0,0],[-1,0,0]],"gpu":"` + gpu + `"}`
	}
	s.setPredict(serialStub(func(arch string, st stencil.Stencil) (*core.ServePrediction, error) {
		return nil, fmt.Errorf("core: no runnable OC for %s on %s", st.Name, arch)
	}))
	rec, out := postPredict(t, h, body("V100"))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("tuning failure on stencil %q gave %d (%v), want 500", "unknown7pt", rec.Code, out)
	}
	s.setPredict(nil)
	rec, out = postPredict(t, h, body("H100"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown GPU gave %d (%v), want 400", rec.Code, out)
	}
}

// TestPredictLoadShed: with the in-flight cap at 1, a second concurrent
// request is refused with 503 + Retry-After instead of queueing, and the
// shed is counted.
func TestPredictLoadShed(t *testing.T) {
	s := hardenedServer(t, Options{MaxInFlight: 1})
	fw := testFramework(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	s.setPredict(serialStub(func(arch string, st stencil.Stencil) (*core.ServePrediction, error) {
		entered <- struct{}{}
		<-release
		return fw.ServePredict(arch, st)
	}))
	h := s.Handler()

	firstDone := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"stencil":"star2d1r","gpu":"V100"}`))
		h.ServeHTTP(rec, req)
		firstDone <- rec.Code
	}()
	<-entered // first request now holds the only in-flight slot

	rec, out := postPredict(t, h, `{"stencil":"star2d1r","gpu":"V100"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request at capacity gave %d (%v), want 503", rec.Code, out)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response carries no Retry-After")
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("admitted request gave %d", code)
	}
	if st := statsOf(t, h); st.Faults.LoadShed != 1 {
		t.Fatalf("faults %+v, want exactly one shed request", st.Faults)
	}
}

// TestPredictOversizeBody: a body past MaxRequestBytes gets 413 with a
// JSON error, counted, without disturbing the other fault counters.
func TestPredictOversizeBody(t *testing.T) {
	h := hardenedServer(t, Options{}).Handler()
	body := `{"stencil":"` + strings.Repeat("x", MaxRequestBytes) + `","gpu":"V100"}`
	rec, out := postPredict(t, h, body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body gave %d (%v), want 413", rec.Code, out)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "bytes") {
		t.Fatalf("413 body %v does not state the limit", out)
	}
	st := statsOf(t, h)
	if st.Faults != (FaultSnapshot{OversizeRequests: 1}) {
		t.Fatalf("faults %+v, want only one oversize request", st.Faults)
	}
}

// TestPredictMethodNotAllowed: every non-POST verb on /predict gets a
// JSON 405 rather than a default text error.
func TestPredictMethodNotAllowed(t *testing.T) {
	h := hardenedServer(t, Options{}).Handler()
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/predict", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s /predict gave %d, want 405", method, rec.Code)
		}
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s /predict body %q is not JSON: %v", method, rec.Body.String(), err)
		}
		if _, ok := out["error"]; !ok {
			t.Fatalf("%s /predict body %v has no error field", method, out)
		}
	}
}
