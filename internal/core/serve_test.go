package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stencilmart/internal/ml"
	"stencilmart/internal/stencil"
	"stencilmart/internal/testutil"
)

// --- the oracle -------------------------------------------------------------

// serveOracle is the serving path written straight-line from the kept
// single-item primitives (PredictClassTrained, tuneForClass,
// PredictStencilSeconds, rentAdvice), in the pipeline's documented check
// order. It shares no code with servePipeline, so "a batch of N is N
// independent answers" is checked against something that is not the
// pipeline itself.
func serveOracle(fw *Framework, req ServeRequest) ServeOutcome {
	fail := func(err error) ServeOutcome { return ServeOutcome{Err: err} }
	tr, err := fw.requireTrained()
	if err != nil {
		return fail(err)
	}
	_, arch, err := fw.ArchByName(req.GPU)
	if err != nil {
		return fail(err)
	}
	class, proba, err := fw.PredictClassTrained(req.GPU, req.Stencil)
	if err != nil {
		return fail(err)
	}
	reg, ok := tr.Regressors[req.Stencil.Dims]
	if !ok {
		return fail(fmt.Errorf("core: no trained %d-D regressor", req.Stencil.Dims))
	}
	oc, best, err := fw.tuneForClass(req.GPU, req.Stencil, arch, proba, oracleSeed(fw.Cfg.Seed, req))
	if err != nil {
		return fail(err)
	}
	archs := fw.Dataset.Archs
	times := reg.PredictStencilSeconds(req.Stencil, oc, best.Params, archs)
	names := make([]string, len(archs))
	for i, a := range archs {
		names[i] = a.Name
	}
	return ServeOutcome{Prediction: &ServePrediction{
		Stencil:          req.Stencil.Name,
		GPU:              req.GPU,
		Class:            class,
		Proba:            proba,
		OC:               oc.String(),
		Params:           best.Params,
		TunedSeconds:     best.Time,
		ArchNames:        names,
		PredictedSeconds: times,
		Advice:           rentAdvice(req.GPU, archs, times),
	}}
}

// oracleSeed is the tuning seed written the way every golden was
// recorded — fmt over an FNV stream — so the differential tests hold the
// pipeline's byte-built seed to the same bits.
func oracleSeed(base int64, req ServeRequest) int64 {
	h := fnv.New64a()
	io.WriteString(h, req.GPU)
	io.WriteString(h, req.Stencil.Name)
	for _, p := range req.Stencil.Points {
		fmt.Fprintf(h, "|%d,%d,%d", p.Dx, p.Dy, p.Dz)
	}
	return base + int64(h.Sum64()&0x7fffffff)
}

// TestServeIdentitySeedMatchesOracle pins the byte-built identity to the
// fmt-built seed directly (negative and multi-digit offsets included), and
// checks the key separates what the seed's unseparated bytes conflate.
func TestServeIdentitySeedMatchesOracle(t *testing.T) {
	reqs := []ServeRequest{
		{GPU: "V100", Stencil: stencil.Star(2, 1)},
		{GPU: "A100", Stencil: stencil.Box(3, 2)},
		{GPU: "2080Ti", Stencil: stencil.Stencil{Name: "far", Dims: 3, Points: []stencil.Point{{Dx: -12, Dy: 0, Dz: 105}, {Dx: 7, Dy: -3, Dz: 0}}}},
		{GPU: "", Stencil: stencil.Stencil{}},
	}
	var key []byte
	for _, req := range reqs {
		var seed int64
		key, seed = serveIdentity(key[:0], 42, req)
		if want := oracleSeed(42, req); seed != want {
			t.Errorf("%s on %s: seed %d, want %d (key %q)", req.Stencil.Name, req.GPU, seed, want, key)
		}
	}
	a, seedA := serveIdentity(nil, 0, ServeRequest{GPU: "A1", Stencil: stencil.Stencil{Name: "00x", Dims: 2}})
	b, seedB := serveIdentity(nil, 0, ServeRequest{GPU: "A100", Stencil: stencil.Stencil{Name: "x", Dims: 2}})
	if seedA != seedB || string(a) == string(b) {
		t.Errorf("keys %q / %q, seeds %d / %d: want distinct keys under one seed", a, b, seedA, seedB)
	}
}

// --- the lane table ---------------------------------------------------------

// serveLaneCase is one row of the table every pipeline test runs over:
// an entry point with the fault doubles for its models. The compiled f32
// models are the only serving lane, so the table has one row.
type serveLaneCase struct {
	name string
	run  func(fw *Framework, ctx context.Context, reqs []ServeRequest) []ServeOutcome
	// poisonClassifier makes the lane's (gpu, dims) classifier panic on
	// any batch containing the poisoned stencil's row.
	poisonClassifier func(t *testing.T, fw *Framework, gpuName string, dims int, poisoned stencil.Stencil) (restore func())
	// capRegressor makes the lane's dims regressor panic on any call with
	// more than rowsCap rows.
	capRegressor func(t *testing.T, fw *Framework, dims, rowsCap int) (restore func())
}

var serveLanes = []serveLaneCase{
	{
		name: "f32",
		run: func(fw *Framework, ctx context.Context, reqs []ServeRequest) []ServeOutcome {
			return fw.ServePredictBatch(ctx, reqs)
		},
		poisonClassifier: func(t *testing.T, fw *Framework, gpuName string, dims int, poisoned stencil.Stencil) func() {
			ct := compiledF32(t, fw)
			real := ct.classifiers[gpuName][dims]
			row := classEncode(ct.ClassifierKind, poisoned)
			poison := make([]float32, len(row))
			for j, v := range row {
				poison[j] = float32(v)
			}
			ct.classifiers[gpuName][dims] = &panickyClassifierF32{inner: real, poison: poison}
			return func() { ct.classifiers[gpuName][dims] = real }
		},
		capRegressor: func(t *testing.T, fw *Framework, dims, rowsCap int) func() {
			reg := compiledF32(t, fw).regressors[dims]
			real := reg.model
			reg.model = &panickyRegressorF32{inner: real, rowsCap: rowsCap}
			return func() { reg.model = real }
		},
	},
}

func compiledF32(t testing.TB, fw *Framework) *CompiledTrained {
	t.Helper()
	ct, err := fw.CompiledF32()
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// forEachLane runs fn once per lane as a subtest.
func forEachLane(t *testing.T, fn func(t *testing.T, lane serveLaneCase)) {
	for _, lane := range serveLanes {
		t.Run(lane.name, func(t *testing.T) { fn(t, lane) })
	}
}

// singles answers every request as its own batch of one — the lane's
// independent answers a batch must reproduce bitwise.
func (lane serveLaneCase) singles(fw *Framework, reqs []ServeRequest) []ServeOutcome {
	outs := make([]ServeOutcome, len(reqs))
	for i, req := range reqs {
		outs[i] = lane.run(fw, context.Background(), []ServeRequest{req})[0]
	}
	return outs
}

// trainServe trains the shared smoke framework for one mechanism pair.
func trainServe(t testing.TB, ck ClassifierKind, rk RegressorKind) *Framework {
	t.Helper()
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ck, rk); err != nil {
		t.Fatal(err)
	}
	return fw
}

// batchRequests builds the differential workload: every probe on every
// catalog GPU, plus a duplicate (coalesced traffic repeats shapes) and
// requests that must fail (unknown GPU, invalid stencil).
func batchRequests(fw *Framework) []ServeRequest {
	var reqs []ServeRequest
	for _, s := range ckptProbes() {
		for _, a := range fw.Dataset.Archs {
			reqs = append(reqs, ServeRequest{GPU: a.Name, Stencil: s})
		}
	}
	return append(reqs,
		reqs[0], // duplicate: identical requests must produce identical bytes
		ServeRequest{GPU: "NoSuchGPU", Stencil: stencil.Star(2, 1)},
		ServeRequest{GPU: fw.Dataset.Archs[0].Name, Stencil: stencil.Stencil{Name: "empty", Dims: 2}},
	)
}

// --- comparators ------------------------------------------------------------

// outcomeBytes renders what a client would observe of an outcome: the
// marshalled prediction, or the error text.
func outcomeBytes(t testing.TB, o ServeOutcome) []byte {
	t.Helper()
	if o.Err != nil {
		return []byte("error: " + o.Err.Error())
	}
	raw, err := json.Marshal(o.Prediction)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// assertSameOutcome demands identical JSON bytes for successes and
// identical error text for failures.
func assertSameOutcome(t *testing.T, label string, want, got ServeOutcome) {
	t.Helper()
	testutil.AssertSameBytes(t, label, outcomeBytes(t, want), outcomeBytes(t, got))
}

// laneTieEps is the documented tie-epsilon of the f32 lane's decision
// contract: wherever the float64 oracle's top-2 probability gap is at
// least this wide, the f32 lane must pick the same class; inside the
// band either decision is acceptable (the oracle itself is one rounding
// away from flipping).
const laneTieEps = 1e-6

// laneRelTol is the documented relative tolerance on predicted seconds
// when the lane and the oracle agree on the class (and therefore tuned
// the same OC).
const laneRelTol = 5e-3

// laneProbaTol bounds per-class probability drift from the oracle.
const laneProbaTol = 2e-3

// top2Gap returns the difference between the largest and second-largest
// probabilities.
func top2Gap(p []float64) float64 {
	best, second := math.Inf(-1), math.Inf(-1)
	for _, v := range p {
		switch {
		case v > best:
			best, second = v, best
		case v > second:
			second = v
		}
	}
	return best - second
}

// sameClassOrder reports whether both probability vectors sort their
// classes identically — the condition under which tuning (which walks
// classes in descending-probability order) behaves identically.
func sameClassOrder(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	oa, ob := classOrder(a), classOrder(b)
	for i := range oa {
		if oa[i] != ob[i] {
			return false
		}
	}
	return true
}

// assertLaneOutcome checks one f32 outcome against the float64 oracle's
// under the lane contract: identical errors, identical decisions away from
// ties, close probabilities, and — when the tuned OC is forced to agree
// — bitwise-equal tuning and predicted seconds within laneRelTol.
func assertLaneOutcome(t *testing.T, label string, ref, got ServeOutcome) {
	t.Helper()
	if (ref.Err == nil) != (got.Err == nil) {
		t.Fatalf("%s: f64 err %v, f32 err %v", label, ref.Err, got.Err)
	}
	if ref.Err != nil {
		if ref.Err.Error() != got.Err.Error() {
			t.Fatalf("%s: error drift:\nf64: %v\nf32: %v", label, ref.Err, got.Err)
		}
		return
	}
	rp, gp := ref.Prediction, got.Prediction
	if rp.Stencil != gp.Stencil || rp.GPU != gp.GPU {
		t.Fatalf("%s: identity drift: %s/%s vs %s/%s", label, rp.Stencil, rp.GPU, gp.Stencil, gp.GPU)
	}
	if len(rp.Proba) != len(gp.Proba) {
		t.Fatalf("%s: proba width %d vs %d", label, len(rp.Proba), len(gp.Proba))
	}
	for k := range rp.Proba {
		if d := math.Abs(rp.Proba[k] - gp.Proba[k]); d > laneProbaTol {
			t.Fatalf("%s: class %d proba f64 %g vs f32 %g", label, k, rp.Proba[k], gp.Proba[k])
		}
	}
	if top2Gap(rp.Proba) >= laneTieEps && rp.Class != gp.Class {
		t.Fatalf("%s: decision drift: f64 class %d (gap %g) vs f32 class %d",
			label, rp.Class, top2Gap(rp.Proba), gp.Class)
	}
	if !sameClassOrder(rp.Proba, gp.Proba) {
		return // sub-leading tie: tuning may legitimately pick another rep OC
	}
	// Same class order means identical tuning: the tuner is a
	// deterministic float64 function of (request, class order).
	if rp.OC != gp.OC {
		t.Fatalf("%s: OC drift: %s vs %s", label, rp.OC, gp.OC)
	}
	if rp.Params != gp.Params {
		t.Fatalf("%s: params drift: %+v vs %+v", label, rp.Params, gp.Params)
	}
	if rp.TunedSeconds != gp.TunedSeconds {
		t.Fatalf("%s: tuned-seconds drift: %g vs %g", label, rp.TunedSeconds, gp.TunedSeconds)
	}
	for i := range rp.PredictedSeconds {
		r, g := rp.PredictedSeconds[i], gp.PredictedSeconds[i]
		if math.Abs(g-r) > laneRelTol*math.Max(math.Abs(r), 1e-12) {
			t.Fatalf("%s: %s predicted %g (f64) vs %g (f32), rel %g",
				label, rp.ArchNames[i], r, g, math.Abs(g-r)/math.Abs(r))
		}
	}
}

func reqLabel(req ServeRequest) string { return req.Stencil.Name + " on " + req.GPU }

// --- fault doubles ----------------------------------------------------------

// panickyClassifierF32 wraps a compiled classifier and panics on any
// batch containing one poisoned row. It models a model bug one request
// triggers, to prove the pipeline retries per item and quarantines the
// failure.
type panickyClassifierF32 struct {
	inner  ml.ClassifierF32
	poison []float32
}

func (p *panickyClassifierF32) Classes() int { return p.inner.Classes() }
func (p *panickyClassifierF32) PredictProbaBatchF32(rows [][]float32, out []float32) {
	for _, r := range rows {
		if slices.Equal(r, p.poison) {
			panic("poisoned batch")
		}
	}
	p.inner.PredictProbaBatchF32(rows, out)
}

// panickyRegressorF32 fails every multi-item batched call but serves
// per-item row counts, forcing the pipeline onto its per-item regression
// fallback — whose results must still match independent answers bitwise.
type panickyRegressorF32 struct {
	inner   ml.RegressorF32
	rowsCap int
}

func (p *panickyRegressorF32) PredictValueBatchF32(rows [][]float32, out []float32) {
	if len(rows) > p.rowsCap {
		panic("batch too large")
	}
	p.inner.PredictValueBatchF32(rows, out)
}

// --- the differential suite -------------------------------------------------

// TestServePredictBatchMatchesSerial is the core determinism contract of
// the coalescing tier: a batch must be indistinguishable from independent
// answers — bitwise equal to one batch-of-one call per request, and in
// agreement with the straight-line float64 oracle under the lane
// contract — same JSON bytes, same errors, regardless of scheduler
// parallelism during the tuning fan-out.
func TestServePredictBatchMatchesSerial(t *testing.T) {
	pairs := []struct {
		ck ClassifierKind
		rk RegressorKind
	}{
		{ClassGBDT, RegGB},
		{ClassFcNet, RegMLP},
	}
	for _, pair := range pairs {
		t.Run(pair.ck.String()+"_"+pair.rk.String(), func(t *testing.T) {
			fw := trainServe(t, pair.ck, pair.rk)
			reqs := batchRequests(fw)
			for _, procs := range []int{1, 4} {
				t.Run(map[int]string{1: "GOMAXPROCS1", 4: "GOMAXPROCS4"}[procs], func(t *testing.T) {
					forEachLane(t, func(t *testing.T, lane serveLaneCase) {
						testutil.WithGOMAXPROCS(t, procs, func() {
							outs := lane.run(fw, context.Background(), reqs)
							if len(outs) != len(reqs) {
								t.Fatalf("%d outcomes for %d requests", len(outs), len(reqs))
							}
							singles := lane.singles(fw, reqs)
							for i, req := range reqs {
								assertLaneOutcome(t, reqLabel(req)+" vs oracle", serveOracle(fw, req), outs[i])
								assertSameOutcome(t, reqLabel(req)+" vs batch of one", singles[i], outs[i])
							}
						})
					})
				})
			}
		})
	}
}

// TestServePredictBatchEmptyAndUntrained: an empty batch returns empty,
// an untrained framework fails every slot, and a duplicate shares its
// primary's prediction.
func TestServePredictBatchEmptyAndUntrained(t *testing.T) {
	fw := trainServe(t, ClassGBDT, RegGB)
	name := fw.Dataset.Archs[0].Name
	reqs := []ServeRequest{
		{GPU: name, Stencil: stencil.Star(2, 2)},
		{GPU: name, Stencil: stencil.Star(2, 2)},
	}
	forEachLane(t, func(t *testing.T, lane serveLaneCase) {
		if outs := lane.run(fw, context.Background(), nil); len(outs) != 0 {
			t.Fatalf("nil batch gave %d outcomes", len(outs))
		}
		outs := lane.run(&Framework{}, context.Background(), reqs)
		for i, o := range outs {
			if len(outs) != len(reqs) || o.Err == nil || !strings.Contains(o.Err.Error(), "no trained models") {
				t.Fatalf("untrained batch slot %d gave %+v", i, o)
			}
			if errors.Is(o.Err, ErrBadRequest) {
				t.Errorf("an untrained framework is not the request's fault: %v", o.Err)
			}
		}
		outs = lane.run(fw, context.Background(), reqs)
		if outs[0].Err != nil || outs[1].Err != nil {
			t.Fatalf("dedup batch failed: %v / %v", outs[0].Err, outs[1].Err)
		}
		if outs[0].Prediction != outs[1].Prediction {
			t.Error("duplicate should share its primary's prediction")
		}
	})
}

// TestServePredictBatchIsolatesPoisonedRow: when the batched classifier
// call panics, only the request that triggers the panic may fail — its
// batchmates must still return predictions identical to independent
// answers.
func TestServePredictBatchIsolatesPoisonedRow(t *testing.T) {
	fw := trainServe(t, ClassGBDT, RegGB)
	gpuName := fw.Dataset.Archs[0].Name
	reqs := []ServeRequest{
		{GPU: gpuName, Stencil: stencil.Star(2, 2)},
		{GPU: gpuName, Stencil: stencil.Box(2, 1)}, // poisoned
		{GPU: gpuName, Stencil: stencil.Star(2, 3)},
	}
	forEachLane(t, func(t *testing.T, lane serveLaneCase) {
		want := lane.singles(fw, reqs) // computed before the stub goes in
		defer lane.poisonClassifier(t, fw, gpuName, 2, reqs[1].Stencil)()

		outs := lane.run(fw, context.Background(), reqs)
		if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "classify panicked") {
			t.Fatalf("poisoned request gave %+v, want classify panic error", outs[1])
		}
		if errors.Is(outs[1].Err, ErrBadRequest) {
			t.Errorf("a model panic is not the request's fault: %v", outs[1].Err)
		}
		for _, i := range []int{0, 2} {
			assertSameOutcome(t, reqLabel(reqs[i]), want[i], outs[i])
		}
	})
}

// TestServePredictBatchRegressionFallback: a panicking grouped regression
// call must degrade to per-item scoring with no observable difference
// from independent answers.
func TestServePredictBatchRegressionFallback(t *testing.T) {
	fw := trainServe(t, ClassGBDT, RegGB)
	var reqs []ServeRequest
	for _, a := range fw.Dataset.Archs {
		reqs = append(reqs,
			ServeRequest{GPU: a.Name, Stencil: stencil.Star(2, 2)},
			ServeRequest{GPU: a.Name, Stencil: stencil.Box(2, 2)})
	}
	forEachLane(t, func(t *testing.T, lane serveLaneCase) {
		want := lane.singles(fw, reqs)
		// Allow exactly one item's worth of rows: the per-item fallback
		// scores len(archs) rows per call.
		defer lane.capRegressor(t, fw, 2, len(fw.Dataset.Archs))()

		outs := lane.run(fw, context.Background(), reqs)
		for i, req := range reqs {
			if outs[i].Err != nil {
				t.Fatalf("req %d failed under fallback: %v", i, outs[i].Err)
			}
			assertSameOutcome(t, reqLabel(req), want[i], outs[i])
		}
	})
}

// TestServePredictBatchErrorPrecedence: a request that fails several
// ways reports the first failure in the pipeline's documented order —
// unknown GPU, invalid stencil, uncovered classifier, uncovered regressor
// — with the oracle's error text, and every one of them is the request's
// fault (ErrBadRequest).
func TestServePredictBatchErrorPrecedence(t *testing.T) {
	fw := trainServe(t, ClassGBDT, RegGB)
	full := fw.Trained
	defer func() { fw.Trained = full }()
	archs := fw.Dataset.Archs
	noCls, no3D := archs[0].Name, archs[1].Name

	// A trained set with holes: no classifier at all for noCls, no 3-D
	// classifier for no3D, no 3-D regressor for anyone. A fresh Trained
	// pointer also makes the compiled models rebuild from it.
	holed := &Trained{
		ClassifierKind: full.ClassifierKind,
		RegressorKind:  full.RegressorKind,
		Classifiers:    map[string]map[int]ml.Classifier{},
		Regressors:     map[int]*TrainedRegressor{2: full.Regressors[2]},
	}
	for name, byDims := range full.Classifiers {
		switch name {
		case noCls:
		case no3D:
			holed.Classifiers[name] = map[int]ml.Classifier{2: byDims[2]}
		default:
			holed.Classifiers[name] = byDims
		}
	}
	fw.Trained = holed

	invalid := stencil.Stencil{Name: "empty", Dims: 2}
	cases := []struct {
		req  ServeRequest
		want string
	}{
		{ServeRequest{GPU: "NoSuchGPU", Stencil: invalid}, "not in dataset"},
		{ServeRequest{GPU: noCls, Stencil: invalid}, "stencil has no points"},
		{ServeRequest{GPU: noCls, Stencil: stencil.Star(3, 1)}, "no trained classifier for GPU"},
		{ServeRequest{GPU: no3D, Stencil: stencil.Star(3, 1)}, "no trained 3-D classifier for GPU"},
		{ServeRequest{GPU: archs[2].Name, Stencil: stencil.Star(3, 1)}, "no trained 3-D regressor"},
		{ServeRequest{GPU: no3D, Stencil: stencil.Star(2, 1)}, ""},
	}
	reqs := make([]ServeRequest, len(cases))
	for i, c := range cases {
		reqs[i] = c.req
	}
	forEachLane(t, func(t *testing.T, lane serveLaneCase) {
		outs := lane.run(fw, context.Background(), reqs)
		for i, c := range cases {
			assertLaneOutcome(t, reqLabel(c.req), serveOracle(fw, c.req), outs[i])
			if c.want == "" {
				if outs[i].Err != nil {
					t.Errorf("%s: covered request failed: %v", reqLabel(c.req), outs[i].Err)
				}
				continue
			}
			if outs[i].Err == nil || !strings.Contains(outs[i].Err.Error(), c.want) {
				t.Errorf("%s: got %v, want error containing %q", reqLabel(c.req), outs[i].Err, c.want)
			}
			if !errors.Is(outs[i].Err, ErrBadRequest) {
				t.Errorf("%s: %v is not marked ErrBadRequest", reqLabel(c.req), outs[i].Err)
			}
		}
	})
}

// expiringCtx reports context.Canceled from its (after+1)-th Err call on:
// a deterministic stand-in for a deadline that passes while the pipeline
// is between two of its checks.
type expiringCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *expiringCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestServePredictBatchContext: a context that is already expired, or
// that expires while the tuning pass is dispatching, fails every admitted
// request (and its duplicates) with the context error, while requests
// that failed admission keep their own errors; a live context changes
// nothing.
func TestServePredictBatchContext(t *testing.T) {
	fw := trainServe(t, ClassGBDT, RegGB)
	reqs := batchRequests(fw)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	ctxs := []struct {
		name string
		ctx  func() context.Context
		want error
	}{
		{"cancelled", func() context.Context { return cancelled }, context.Canceled},
		{"deadline passed", func() context.Context { return expired }, context.DeadlineExceeded},
		// Err call 1 is the pre-classify check and call 2 ForEach's entry
		// check; at GOMAXPROCS 1 each further call precedes one item's
		// tuning, so the pass is cut after three items.
		{"mid-tune", func() context.Context { return &expiringCtx{Context: context.Background(), after: 5} }, context.Canceled},
	}
	forEachLane(t, func(t *testing.T, lane serveLaneCase) {
		live := lane.run(fw, context.Background(), reqs)
		for _, c := range ctxs {
			testutil.WithGOMAXPROCS(t, 1, func() {
				outs := lane.run(fw, c.ctx(), reqs)
				for i, req := range reqs {
					if errors.Is(live[i].Err, ErrBadRequest) {
						assertSameOutcome(t, c.name+": "+reqLabel(req), live[i], outs[i])
						continue
					}
					if live[i].Err != nil {
						t.Fatalf("live run failed %s: %v", reqLabel(req), live[i].Err)
					}
					if !errors.Is(outs[i].Err, c.want) || outs[i].Prediction != nil {
						t.Errorf("%s: %s gave %+v, want %v", c.name, reqLabel(req), outs[i], c.want)
					}
				}
			})
		}
		var nilCtx context.Context
		for i, o := range lane.run(fw, nilCtx, reqs) {
			assertSameOutcome(t, "nil ctx: "+reqLabel(reqs[i]), live[i], o)
		}
	})
}

// --- f32 contracts ----------------------------------------------------------

// TestServeLaneDifferential is the end-to-end differential contract of
// the f32 serving lane across every compilable mechanism pair: on the
// full probe-x-GPU corpus (plus duplicate and failing requests), class
// decisions match the float64 oracle away from documented ties, errors
// are identical, and predicted seconds agree within laneRelTol.
func TestServeLaneDifferential(t *testing.T) {
	pairs := []struct {
		ck ClassifierKind
		rk RegressorKind
	}{
		{ClassGBDT, RegGB},
		{ClassFcNet, RegMLP},
		{ClassConvNet, RegConvMLP},
	}
	for _, pair := range pairs {
		t.Run(pair.ck.String()+"_"+pair.rk.String(), func(t *testing.T) {
			fw := trainServe(t, pair.ck, pair.rk)
			reqs := batchRequests(fw)
			outs := fw.ServePredictBatchF32(context.Background(), reqs, NewServeArena())
			if len(outs) != len(reqs) {
				t.Fatalf("%d outcomes for %d requests", len(outs), len(reqs))
			}
			for i, req := range reqs {
				assertLaneOutcome(t, reqLabel(req), serveOracle(fw, req), outs[i])
			}
		})
	}
}

// TestServeLaneF32Stable pins bitwise reproducibility of the f32 lane:
// rerunning the same batch — with a reused arena, a fresh arena, and
// under different GOMAXPROCS — must produce byte-identical predictions.
// The f32 kernels are serial and tuning is seeded per request, so
// scheduler parallelism has nothing to perturb.
func TestServeLaneF32Stable(t *testing.T) {
	fw := trainServe(t, ClassGBDT, RegGB)
	reqs := batchRequests(fw)
	arena := NewServeArena()
	marshal := func(outs []ServeOutcome) []byte {
		var buf []byte
		for _, o := range outs {
			buf = append(buf, outcomeBytes(t, o)...)
		}
		return buf
	}
	var ref []byte
	testutil.WithGOMAXPROCS(t, 1, func() {
		ref = marshal(fw.ServePredictBatchF32(context.Background(), reqs, arena))
	})
	testutil.WithGOMAXPROCS(t, 1, func() {
		testutil.AssertSameBytes(t, "warm arena rerun", ref, marshal(fw.ServePredictBatchF32(context.Background(), reqs, arena)))
	})
	testutil.WithGOMAXPROCS(t, 4, func() {
		testutil.AssertSameBytes(t, "GOMAXPROCS=4", ref, marshal(fw.ServePredictBatchF32(context.Background(), reqs, nil)))
	})
}

// TestCompiledF32CacheInvalidation pins the publish-time compile
// contract: the compiled lane is cached per Trained set and rebuilt only
// when TrainAll swaps in a new one.
func TestCompiledF32CacheInvalidation(t *testing.T) {
	fw := trainServe(t, ClassGBDT, RegGB)
	a := compiledF32(t, fw)
	if b := compiledF32(t, fw); a != b {
		t.Error("second CompiledF32 should return the cached lane")
	}
	trainServe(t, ClassGBDT, RegGB)
	if c := compiledF32(t, fw); c == a {
		t.Error("retraining must invalidate the compiled cache")
	}
}

// TestAllocGateCoreScoringF32 pins the zero-allocation contract of the
// f32 lane's scoring path: with a warm arena and compiled models,
// encoding a group's classifier and regressor rows and scoring them
// through the lane performs zero heap allocations. (Handing results to
// the items outside this boundary intentionally heap-copies
// probabilities and times — see DESIGN.md "Serving pipeline".)
func TestAllocGateCoreScoringF32(t *testing.T) {
	fw := trainServe(t, ClassGBDT, RegGB)
	probe := stencil.Star(2, 2)
	name := fw.Dataset.Archs[0].Name
	_, arch, err := fw.ArchByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ct := compiledF32(t, fw)
	sc := &scorer{ct: ct, arena: NewServeArena(), archs: fw.Dataset.Archs}
	cls, err := classifierIn(ct.classifiers, name, probe.Dims)
	if err != nil {
		t.Fatal(err)
	}
	reg, ok := ct.regressors[probe.Dims]
	if !ok {
		t.Fatal("no compiled 2-D regressor")
	}
	it := &serveItem{req: ServeRequest{GPU: name, Stencil: probe}, arch: arch}
	proba := make([]float64, fw.Grouping.NumClasses())
	proba[0] = 1
	if it.oc, it.tuned, err = fw.tuneForClass(name, probe, arch, proba, oracleSeed(fw.Cfg.Seed, it.req)); err != nil {
		t.Fatal(err)
	}
	items := []*serveItem{it}
	scoring := func() {
		sc.arena.Reset()
		sc.scoreClassify(cls, items)
		sc.scoreRegress(reg, items)
	}
	scoring() // warm the arena slabs and any compiled-layer scratch
	if n := testing.AllocsPerRun(20, scoring); n != 0 {
		t.Errorf("warm f32 scoring path allocs/op = %g, want 0", n)
	}
}

// FuzzLaneDifferential feeds arbitrary stencils through the f32 lane and
// the float64 oracle and holds the differential contract on whatever
// survives admission: the
// checked-in seed corpus covers both dimensionalities and every catalog
// GPU index class.
func FuzzLaneDifferential(f *testing.F) {
	fw := trainServe(f, ClassGBDT, RegGB)
	f.Add(uint8(0), false, []byte{0x01, 0x10, 0x30, 0x62})
	f.Add(uint8(1), true, []byte{0x05, 0x21, 0x13, 0x44, 0x36, 0x57})
	f.Add(uint8(3), false, []byte{})
	arena := NewServeArena()
	f.Fuzz(func(t *testing.T, gpuIdx uint8, is3D bool, data []byte) {
		archs := fw.Dataset.Archs
		name := archs[int(gpuIdx)%len(archs)].Name
		dims := 2
		if is3D {
			dims = 3
		}
		if len(data) > 48 {
			data = data[:48]
		}
		var pts []stencil.Point
		for i := 0; i+1 < len(data); i += 2 {
			p := stencil.Point{
				Dx: int(data[i]%9) - 4,
				Dy: int(data[i+1]%9) - 4,
			}
			if is3D && i+2 < len(data) {
				p.Dz = int(data[i+2]%9) - 4
			}
			pts = append(pts, p)
		}
		s, err := stencil.New("fuzz", dims, pts)
		if err != nil {
			t.Skip() // not an admissible stencil; the lane rejects it at Validate
		}
		req := ServeRequest{GPU: name, Stencil: s}
		ref := serveOracle(fw, req)
		got := fw.ServePredictBatchF32(context.Background(), []ServeRequest{req}, arena)[0]
		assertLaneOutcome(t, s.String(), ref, got)
	})
}
