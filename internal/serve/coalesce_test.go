package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/testutil"
)

// holdLane keeps the server's scoring lane busy until the returned
// release is called: it swaps in a predict function whose first call
// blocks, sends body through it as a plug request, and returns once that
// request's batch is inside the lane. Everything submitted from then on
// queues behind it, so the test — not the scheduler — decides what the
// next batches contain by waiting on the coalescer's Queued gauge.
func holdLane(t *testing.T, s *Server, h http.Handler, body string) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.setPredict(func(fw *core.Framework, ctx context.Context, reqs []core.ServeRequest) []core.ServeOutcome {
		once.Do(func() { close(entered); <-gate })
		return fw.ServePredictBatch(ctx, reqs)
	})
	plugged := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
		plugged <- rec.Code
	}()
	<-entered
	return func() {
		close(gate)
		if code := <-plugged; code != http.StatusOK {
			t.Errorf("plug request gave %d", code)
		}
	}
}

// diffBodies builds M = shapes x GPUs distinct request bodies, M a
// multiple of the differential test's batch size and equal to the
// default one.
func diffBodies(t *testing.T) []string {
	t.Helper()
	fw := testFramework(t)
	shapes := []string{"star2d1r", "star2d2r", "star2d3r", "box2d1r", "box2d2r", "star3d1r", "star3d2r", "box3d1r"}
	var bodies []string
	for _, sh := range shapes {
		for _, a := range fw.Dataset.Archs {
			bodies = append(bodies, fmt.Sprintf(`{"stencil":%q,"gpu":%q}`, sh, a.Name))
		}
	}
	return bodies
}

// postAll sends every body at once through h and returns the statuses and
// response bodies, index-aligned. ready, when non-nil, runs once all the
// requests are on their way and before any result is awaited.
func postAll(h http.Handler, bodies []string, ready func()) ([]int, [][]byte) {
	got := make([][]byte, len(bodies))
	codes := make([]int, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
			codes[i], got[i] = rec.Code, rec.Body.Bytes()
		}(i, body)
	}
	if ready != nil {
		ready()
	}
	wg.Wait()
	return codes, got
}

// TestCoalescedDifferential is the serving tier's determinism proof: M
// concurrent clients through the coalescing server must receive bodies
// byte-identical to serial Framework.ServePredict calls, at any
// GOMAXPROCS. The lane is held until all M are queued, so they provably
// coalesce into M/batchSize full batches — this is not the serial lane in
// disguise.
func TestCoalescedDifferential(t *testing.T) {
	fw := testFramework(t)
	bodies := diffBodies(t)
	const batchSize = 8
	if len(bodies)%batchSize != 0 {
		t.Fatalf("%d bodies not a multiple of batch size %d", len(bodies), batchSize)
	}
	want := serialWant(t, bodies) // serial ground truth, encoded exactly as the handler encodes

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			testutil.WithGOMAXPROCS(t, procs, func() {
				s, err := NewWithOptions(fw, Options{BatchSize: batchSize, MaxInFlight: len(bodies) + 1})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				h := s.Handler()

				release := holdLane(t, s, h, bodies[0])
				codes, got := postAll(h, bodies, func() {
					waitFor(t, func() bool { return s.co.Stats().Queued == len(bodies) })
					release()
				})
				for i, body := range bodies {
					if codes[i] != http.StatusOK {
						t.Fatalf("request %q gave %d: %s", body, codes[i], got[i])
					}
					testutil.AssertSameBytes(t, body, want[body], got[i])
				}

				st := s.co.Stats()
				full := uint64(len(bodies) / batchSize)
				if st.Batches != full+1 || st.SizeFlushes != full || st.Requests != uint64(len(bodies))+1 {
					t.Fatalf("batch stats %+v, want the plug and %d saturation flushes", st, full)
				}
				if st.MaxBatch != batchSize {
					t.Fatalf("max batch %d, want %d", st.MaxBatch, batchSize)
				}
			})
		})
	}
}

// TestBatchesFormUnderLoad keeps PR 6's load shape honest now that no
// window holds a batch open: 32 concurrent distinct requests against a
// lane whose model call takes real time must coalesce by themselves
// (arrivals queue behind the busy lane), where MaxBatch 1 scores them in
// 32 calls — and both must answer every request with the serial bytes.
func TestBatchesFormUnderLoad(t *testing.T) {
	fw := testFramework(t)
	bodies := diffBodies(t)
	want := serialWant(t, bodies)
	for _, batchSize := range []int{1, DefaultBatchSize} {
		s, err := NewWithOptions(fw, Options{BatchSize: batchSize, MaxInFlight: len(bodies)})
		if err != nil {
			t.Fatal(err)
		}
		s.setPredict(func(fw *core.Framework, ctx context.Context, reqs []core.ServeRequest) []core.ServeOutcome {
			time.Sleep(200 * time.Microsecond) // a model call's fixed cost: the lane stays busy while others arrive
			return fw.ServePredictBatch(ctx, reqs)
		})
		codes, got := postAll(s.Handler(), bodies, nil)
		s.Close()
		for i, body := range bodies {
			if codes[i] != http.StatusOK {
				t.Fatalf("batch size %d: request %q gave %d: %s", batchSize, body, codes[i], got[i])
			}
			testutil.AssertSameBytes(t, body, want[body], got[i])
		}
		st := s.co.Stats()
		if st.Requests != uint64(len(bodies)) || st.Dropped != 0 {
			t.Fatalf("batch size %d: stats %+v, want %d scored requests", batchSize, st, len(bodies))
		}
		if batchSize == 1 && st.AvgBatch != 1 {
			t.Fatalf("serial lane avg batch %g, want 1", st.AvgBatch)
		}
		if batchSize > 1 && st.AvgBatch <= 1 { // i.e. fewer model calls than the serial lane's 32
			t.Fatalf("no batch formed under 32 concurrent clients: stats %+v", st)
		}
	}
}

// TestCloseAnswersAndReleasesEveryRequest: /predict racing Server.Close
// must answer every request (200, or 503 once closed) and release every
// model lease, so retiring the version afterwards does not hang — a job
// admitted as the lane exited used to keep its lease for good.
func TestCloseAnswersAndReleasesEveryRequest(t *testing.T) {
	fw := testFramework(t)
	bodies := diffBodies(t)[:8]
	for iter := 0; iter < 40; iter++ {
		s, err := NewWithOptions(fw, Options{BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		codes, got := postAll(s.Handler(), bodies, s.Close)
		for i, code := range codes {
			if code != http.StatusOK && code != http.StatusServiceUnavailable {
				t.Fatalf("iteration %d: request %q gave %d: %s", iter, bodies[i], code, got[i])
			}
		}
		if _, err := s.Registry().Publish(fw); err != nil { // v2, so v1 can retire
			t.Fatal(err)
		}
		retired := make(chan error, 1)
		go func() { retired <- s.Registry().Retire("v1") }()
		select {
		case err := <-retired:
			if err != nil {
				t.Fatalf("iteration %d: retire: %v", iter, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Retire hangs after Close: versions %+v", iter, s.Registry().Versions())
		}
	}
}

// TestModelVersionPinning: ?model=vN routes to that version, unknown
// versions 404, and /modelz lists what is live.
func TestModelVersionPinning(t *testing.T) {
	s := hardenedServer(t, Options{})
	if _, err := s.Registry().Publish(testFramework(t)); err != nil { // v2, same models
		t.Fatal(err)
	}
	h := s.Handler()

	for _, pin := range []string{"", "?model=v1", "?model=v2"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict"+pin, strings.NewReader(`{"stencil":"star2d1r","gpu":"V100"}`))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %q gave %d: %s", pin, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/predict?model=v9", strings.NewReader(`{"stencil":"star2d1r","gpu":"V100"}`))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown model pin gave %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/modelz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("modelz gave %d", rec.Code)
	}
	var out struct {
		Current  string `json:"current"`
		Versions []struct {
			Version string `json:"version"`
		} `json:"versions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Current != "v2" || len(out.Versions) != 2 {
		t.Fatalf("modelz listing %+v, want v2 current of 2", out)
	}
}

// TestModelSwapUnderLoad is the rollout acceptance test: while clients
// hammer /predict, a checkpoint publishes as v2 and v1 retires — and not
// one request may fail. Pinned v1 requests work before the swap and 404
// after v1 is drained away.
func TestModelSwapUnderLoad(t *testing.T) {
	fw := testFramework(t)
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	if err := fw.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}

	s, err := NewWithOptions(fw, Options{
		BatchSize:   8,
		MaxInFlight: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	post := func(target, body string) (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	// Pinned v1 serves before the swap.
	if code, body := post("/predict?model=v1", `{"stencil":"star2d1r","gpu":"V100"}`); code != http.StatusOK {
		t.Fatalf("pinned v1 pre-swap gave %d: %s", code, body)
	}

	const clients, perClient = 6, 25
	bodies := diffBodies(t)
	type failure struct {
		code int
		body string
	}
	failures := make(chan failure, clients*perClient)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				code, body := post("/predict", bodies[(c*perClient+i)%len(bodies)])
				if code != http.StatusOK {
					failures <- failure{code, body}
				}
			}
		}(c)
	}
	close(start)

	// Roll out mid-load: publish the checkpoint, drain and retire v1.
	code, body := post("/modelz", fmt.Sprintf(`{"path":%q,"retire_old":true}`, ckpt))
	if code != http.StatusOK {
		t.Fatalf("rollout gave %d: %s", code, body)
	}
	var roll struct {
		Published string `json:"published"`
		Current   string `json:"current"`
		Retired   string `json:"retired"`
	}
	if err := json.Unmarshal([]byte(body), &roll); err != nil {
		t.Fatal(err)
	}
	if roll.Published != "v2" || roll.Current != "v2" || roll.Retired != "v1" {
		t.Fatalf("rollout response %+v", roll)
	}

	wg.Wait()
	close(failures)
	for f := range failures {
		t.Errorf("request failed during rollout: %d %s", f.code, f.body)
	}

	// v1 is gone: pinned requests 404 now.
	if code, body := post("/predict?model=v1", `{"stencil":"star2d1r","gpu":"V100"}`); code != http.StatusNotFound {
		t.Fatalf("pinned v1 post-retire gave %d: %s", code, body)
	}
	vs := s.Registry().Versions()
	if len(vs) != 1 || vs[0].Version != "v2" || vs[0].Refs != 0 {
		t.Fatalf("versions after rollout %+v, want only v2 with no refs", vs)
	}
}
