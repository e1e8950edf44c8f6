package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/profile"
	"stencilmart/internal/serve"
)

// modelKind picks which pair of architectures a fixture trains.
type modelKind int

const (
	treeModels modelKind = iota // GBDT + GBRegressor at core.DefaultConfig
	nnModels                    // ConvNet + ConvMLP, training cut short
)

func (k modelKind) String() string {
	if k == nnModels {
		return "nn"
	}
	return "tree"
}

// config returns the fixture's pipeline configuration. The corpus and
// every training choice follow core.DefaultConfig's own seed whatever
// -seed is: time-to-train moves 50% between corpus seeds (0.49-0.76 s in
// the sizing pass), which would drown a 10% bound. -seed drives what the
// trained system is asked, not what it was trained on.
func (k modelKind) config() core.Config {
	cfg := core.DefaultConfig()
	if k == nnModels {
		// Inference cost depends on the architecture, not on how well
		// it was fitted; the fixture pays for one epoch, not forty. (Two
		// ConvNet epochs over 1000 instances made each of the run's six
		// trainings 1.5 s and set-up a third of the driver's time for the
		// run; this is 0.5 s.)
		cfg.ConvNetTrain.Epochs = 1
		cfg.ConvMLPTrain.Epochs = 1
		cfg.MaxRegressionInstances = 400
	}
	return cfg
}

func (k modelKind) kinds() (core.ClassifierKind, core.RegressorKind) {
	if k == nnModels {
		return core.ClassConvNet, core.RegConvMLP
	}
	return core.ClassGBDT, core.RegGB
}

// train runs the train-once half: profile the corpus, merge, fit.
func (k modelKind) train(ctx context.Context) (*core.Framework, error) {
	fw, err := core.Build(ctx, k.config())
	if err != nil {
		return nil, err
	}
	ck, rk := k.kinds()
	if err := fw.TrainAll(ctx, ck, rk); err != nil {
		return nil, err
	}
	return fw, nil
}

// trainOn fits a framework of its own around an already collected
// dataset. core.FromDataset gives it a fresh simulator, so it starts with
// the cold sim state a server loading a checkpoint has - the framework
// core.Build returns still holds the memo of the whole collection.
func (k modelKind) trainOn(ctx context.Context, ds *profile.Dataset) (*core.Framework, error) {
	fw, err := core.FromDataset(k.config(), ds, nil)
	if err != nil {
		return nil, err
	}
	ck, rk := k.kinds()
	if err := fw.TrainAll(ctx, ck, rk); err != nil {
		return nil, err
	}
	return fw, nil
}

// fixture is a served framework plus the one that checks it. Both are
// trained in this process, separately, on one collected dataset: ref
// answers direct core calls, the other sits behind serve.NewWithOptions
// on a real loopback listener with the shipped serve.Options. Training is
// deterministic, so the two must agree byte for byte, and neither has
// seen a request when the clock starts. (The checkpoint round trip is
// train_ckpt's business; a save and a load here would double set-up time
// to re-prove it.)
type fixture struct {
	kind   modelKind
	ds     *profile.Dataset
	ref    *core.Framework
	arena  *core.ServeArena
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// newFixture collects, trains twice and serves.
func newFixture(ctx context.Context, kind modelKind, opts serve.Options) (*fixture, error) {
	built, err := core.Build(ctx, kind.config())
	if err != nil {
		return nil, fmt.Errorf("collecting the %s fixture's corpus: %w", kind, err)
	}
	ref, err := kind.trainOn(ctx, built.Dataset)
	if err != nil {
		return nil, fmt.Errorf("training the %s reference: %w", kind, err)
	}
	served, err := kind.trainOn(ctx, built.Dataset)
	if err != nil {
		return nil, fmt.Errorf("training the %s fixture: %w", kind, err)
	}
	f, err := serveFramework(served, opts)
	if err != nil {
		return nil, err
	}
	f.kind, f.ds, f.ref, f.arena = kind, built.Dataset, ref, core.NewServeArena()
	return f, nil
}

// serveFramework publishes fw and starts an HTTP server for it on
// 127.0.0.1:0. The client keeps at most nproc connections, all
// persistent: the load never uses more than the machine has cores.
func serveFramework(fw *core.Framework, opts serve.Options) (*fixture, error) {
	srv, err := serve.NewWithOptions(fw, opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	f := &fixture{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        runtime.NumCPU(),
				MaxIdleConnsPerHost: runtime.NumCPU(),
				MaxConnsPerHost:     runtime.NumCPU(),
			},
		},
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the server and waits for its goroutines.
func (f *fixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = f.hs.Shutdown(ctx) // a timeout here only means a connection was still open
	<-f.served
	f.srv.Close()
	f.client.CloseIdleConnections()
}

// post sends one /predict body and returns the status and the whole
// response body. buf is reused across calls by one client goroutine.
func (f *fixture) post(query string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := f.client.Post(f.url+"/predict"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// statsz fetches the server's counters.
func (f *fixture) statsz() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := f.client.Get(f.url + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", resp.StatusCode)
	}
	return st, json.Unmarshal(data, &st)
}

// expected is the byte-exact body the server must answer reqs with.
func (f *fixture) expected(ctx context.Context, lane serve.Lane, reqs []core.ServeRequest) ([][]byte, error) {
	return directAnswers(ctx, f.ref, f.arena, lane, reqs)
}

// directAnswers asks fw directly (no server, no batching across callers)
// and encodes each prediction the way serve encodes it.
func directAnswers(ctx context.Context, fw *core.Framework, arena *core.ServeArena, lane serve.Lane, reqs []core.ServeRequest) ([][]byte, error) {
	var outs []core.ServeOutcome
	if lane == serve.LaneF32 {
		outs = fw.ServePredictBatchF32(ctx, reqs, arena)
	} else {
		outs = fw.ServePredictBatch(ctx, reqs)
	}
	want := make([][]byte, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("direct call for %s on %s: %w", reqs[i].Stencil.Name, reqs[i].GPU, o.Err)
		}
		data, err := json.Marshal(o.Prediction)
		if err != nil {
			return nil, err
		}
		want[i] = append(data, '\n') // json.Encoder ends every value with a newline
	}
	return want, nil
}
