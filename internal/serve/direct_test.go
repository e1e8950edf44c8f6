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
	"stencilmart/internal/testutil"
)

// nnFramework trains ConvNet + ConvMLP for one epoch each on the shared
// test framework's dataset: inference cost and concurrency behaviour
// depend on the architecture, not on how well it was fitted.
var (
	nnOnce sync.Once
	nnFw   *core.Framework
	nnErr  error
)

func nnFramework(t *testing.T) *core.Framework {
	t.Helper()
	ds := testFramework(t).Dataset
	nnOnce.Do(func() {
		cfg := core.SmokeConfig()
		cfg.ConvNetTrain.Epochs, cfg.ConvMLPTrain.Epochs = 1, 1
		if nnFw, nnErr = core.FromDataset(cfg, ds, nil); nnErr == nil {
			nnErr = nnFw.TrainAll(context.Background(), core.ClassConvNet, core.RegConvMLP)
		}
	})
	if nnErr != nil {
		t.Fatal(nnErr)
	}
	return nnFw
}

// serialF32Want is serialWant on the f32 lane: each body scored alone
// through ServePredictBatchF32 with a private arena.
func serialF32Want(t *testing.T, fw *core.Framework, bodies []string) map[string][]byte {
	t.Helper()
	arena := core.NewServeArena()
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
		out := fw.ServePredictBatchF32(context.Background(), []core.ServeRequest{{GPU: req.GPU, Stencil: st}}, arena)[0]
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(out.Prediction); err != nil {
			t.Fatal(err)
		}
		want[body] = buf.Bytes()
	}
	return want
}

// hammer sends every body rounds times from workers concurrent clients
// and returns each response, grouped by body.
func hammer(h http.Handler, target string, bodies []string, workers, rounds int) map[string][]*httptest.ResponseRecorder {
	jobs := make(chan string)
	var mu sync.Mutex
	got := make(map[string][]*httptest.ResponseRecorder, len(bodies))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range jobs {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
				mu.Lock()
				got[body] = append(got[body], rec)
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for _, body := range bodies {
			jobs <- body
		}
	}
	close(jobs)
	wg.Wait()
	return got
}

// TestDirectScoringDifferential: a tree framework's requests score on
// their connections' goroutines, concurrently, and every body is still the serial
// answer's bytes on both lanes at any GOMAXPROCS; the lane counters see
// every request and the coalescer none. An nn framework's requests still
// go through the coalescer.
func TestDirectScoringDifferential(t *testing.T) {
	fw := testFramework(t)
	bodies := diffBodies(t) // every catalog GPU, 2-D and 3-D shapes
	const workers, rounds = 8, 3
	for _, lane := range []Lane{LaneF64, LaneF32} {
		var want map[string][]byte
		if lane == LaneF32 {
			want = serialF32Want(t, fw, bodies)
		} else {
			want = serialWant(t, bodies)
		}
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS%d", lane, procs), func(t *testing.T) {
				testutil.WithGOMAXPROCS(t, procs, func() {
					s := hardenedServer(t, Options{MaxInFlight: workers + 1})
					h := s.Handler()
					got := hammer(h, "/predict?lane="+string(lane), bodies, workers, rounds)
					for _, body := range bodies {
						if len(got[body]) != rounds {
							t.Fatalf("%s: %d answers, want %d", body, len(got[body]), rounds)
						}
						for _, rec := range got[body] {
							if rec.Code != http.StatusOK {
								t.Fatalf("%s gave %d: %s", body, rec.Code, rec.Body.String())
							}
							if l := rec.Header().Get("X-Serve-Lane"); l != string(lane) {
								t.Fatalf("%s scored on lane %q, want %q", body, l, lane)
							}
							testutil.AssertSameBytes(t, body, want[body], rec.Body.Bytes())
						}
					}
					st := statsOf(t, h)
					if sent := uint64(len(bodies) * rounds); st.Lanes.F64Requests+st.Lanes.F32Requests != sent {
						t.Fatalf("lane counters %+v, want %d requests", st.Lanes, sent)
					}
					if st.Batch.Requests != 0 || st.Batch.Batches != 0 {
						t.Fatalf("batch stats %+v: tree requests reached the coalescer", st.Batch)
					}
				})
			})
		}
	}

	t.Run("nn", func(t *testing.T) {
		s, err := NewWithOptions(nnFramework(t), Options{MaxInFlight: workers + 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		nnBodies := bodies[:8]
		got := hammer(h, "/predict?lane=f32", nnBodies, workers, 1)
		for _, body := range nnBodies {
			if rec := got[body][0]; rec.Code != http.StatusOK {
				t.Fatalf("%s gave %d: %s", body, rec.Code, rec.Body.String())
			}
		}
		if st := statsOf(t, h); st.Batch.Requests != uint64(len(nnBodies)) {
			t.Fatalf("batch stats %+v, want all %d nn requests coalesced", st.Batch, len(nnBodies))
		}
	})
}

// TestCloseRefusesDirectScoring: after Close, a tree framework's requests
// — which never touch the coalescer — are refused 503 like queued ones,
// and each releases its lease, so the version still retires.
func TestCloseRefusesDirectScoring(t *testing.T) {
	fw := testFramework(t)
	s, err := NewWithOptions(fw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	s.Close()
	bodies := diffBodies(t)
	codes, got := postAll(h, bodies, nil)
	for i, code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Fatalf("request %q after Close gave %d: %s", bodies[i], code, got[i])
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
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Retire hangs after Close: versions %+v", s.Registry().Versions())
	}
}
