package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/gpu"
	"stencilmart/internal/linalg"
	"stencilmart/internal/ml/nn"
	"stencilmart/internal/ml/tree"
	"stencilmart/internal/opt"
	"stencilmart/internal/profile"
	"stencilmart/internal/serve"
	"stencilmart/internal/serve/batch"
	"stencilmart/internal/sim"
	"stencilmart/internal/tensor"
	"stencilmart/internal/tuner"
)

// serveLayers is the per-layer half of a traced serve run: the server's
// own counters over the traced phase, then one probe per layer the
// workload's requests pass through, outermost first.
func serveLayers(r *run, spec serveSpec, bed *serveBed, out serveOutcome) error {
	serveCounters(r, spec, out)

	// A third framework on the same dataset: the probes must not share
	// sim state with the server that was just measured, and they start
	// as cold as it did.
	probeFw, err := spec.kind.trainOn(r.ctx, bed.fx.ds)
	if err != nil {
		return err
	}
	t0 := time.Now()
	b1, err := serveFramework(probeFw, serve.Options{BatchSize: 1})
	if err != nil {
		return err
	}
	r.layer("registry.publish_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	fresh, err := newFreshPool(r.seed)
	if err != nil {
		b1.close()
		return err
	}
	serveProbes(r, spec, bed, b1, fresh)
	b1.close() // from here on nothing else calls into probeFw
	batchProbes(r)
	reg := bed.fx.srv.Registry()
	r.layer("registry.acquire_ns", probeBatched(math.MaxInt, 256, func(int) {
		if h, err := reg.Acquire(""); err == nil {
			h.Release()
		}
	}))
	coreProbes(r, spec, bed, probeFw, fresh)
	simProbes(r, probeFw, fresh)
	if spec.kind == treeModels {
		treeProbes(r, probeFw, fresh)
	} else {
		nnProbes(r, probeFw, fresh)
	}
	if spec.openRate > 0 {
		return sloRate(r, spec, bed)
	}
	return nil
}

// serveCounters reads what the server and the generator counted over the
// traced phase.
func serveCounters(r *run, spec serveSpec, out serveOutcome) {
	sd := cacheDelta(out.before, out.after)
	r.layer("sim.cache_hit_rate", sd.hitRate)
	r.layer("sim.evictions", float64(sd.evictions))
	b0, b1 := out.before.Batch, out.after.Batch
	r.layer("batch.avg_size", batchAvg(out.before, out.after))
	r.layer("batch.max_size", float64(b1.MaxBatch))
	if n := b1.Batches - b0.Batches; n > 0 {
		r.layer("batch.window_flush_share", float64(b1.WindowFlushes-b0.WindowFlushes)/float64(n))
	}
	f0, f1 := out.before.Faults, out.after.Faults
	r.layer("serve.shed", float64(f1.LoadShed-f0.LoadShed))
	r.layer("serve.degraded", float64(f1.DegradedRequests-f0.DegradedRequests))
	r.layer("serve.deadline_expired", float64(out.after.Endpoints["predict"].DeadlineExpired-out.before.Endpoints["predict"].DeadlineExpired))

	var late time.Duration
	missed := 0
	ms := make([]float64, len(out.shots))
	for i, s := range out.shots {
		late = max(late, s.late())
		if !good(spec, s) {
			missed++
		}
		ms[i] = float64(s.latency()) / 1e6
	}
	whole := wholeInterval(ms)
	r.layer("loadgen.p95_ms", whole["p95"]) // whole-phase tails: zero when the phase was too short to support one
	r.layer("loadgen.p99_ms", whole["p99"])
	r.layer("loadgen.p999_ms", whole["p999"])
	if spec.openRate > 0 {
		r.layer("loadgen.max_late_ms", float64(late)/1e6)
		r.layer("loadgen.slo_miss_share", float64(missed)/float64(len(out.shots)))
	}
}

// freshPool hands out generated requests no framework in this process
// has seen, each once.
type freshPool struct {
	reqs []request
	next int
}

// newFreshPool draws from a seed the measured stream does not use.
func newFreshPool(seed int64) (*freshPool, error) {
	reqs, err := distinctRequests(seed+7919, 4096)
	return &freshPool{reqs: reqs}, err
}

func (p *freshPool) take(n int) []request {
	out := p.reqs[p.next : p.next+n]
	p.next += n
	return out
}

// sink is a ResponseWriter that keeps nothing.
type sink struct{ h http.Header }

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(b []byte) (int, error) { return len(b), nil }
func (s *sink) WriteHeader(int)             {}

// serveProbes times the HTTP and JSON shell around the scoring lane on a
// BatchSize 1 server (no coalescing window in the way), one caller.
func serveProbes(r *run, spec serveSpec, bed *serveBed, b1 *fixture, fresh *freshPool) {
	var buf bytes.Buffer
	hot := bed.hot
	for _, q := range hot { // first touch compiles evaluators and fills the memo
		_, _ = b1.post(spec.query(), q.body, &buf)
	}
	r.layer("serve.socket_b1_us", probe(math.MaxInt, func(i int) {
		_, _ = b1.post(spec.query(), hot[i%len(hot)].body, &buf)
	})/1e3)
	handler := b1.hs.Handler
	inProcess := func(body []byte) {
		req, err := http.NewRequest(http.MethodPost, "/predict"+spec.query(), bytes.NewReader(body))
		if err != nil {
			panic(err) // a constant method and path
		}
		handler.ServeHTTP(&sink{h: http.Header{}}, req)
	}
	r.layer("serve.handler_b1_us", probe(math.MaxInt, func(i int) { inProcess(hot[i%len(hot)].body) })/1e3)

	// Decode: generated raw-offset bodies with the GPU left out are
	// refused with 400 right after the JSON is decoded, so the handler
	// time is admission + decode and nothing downstream.
	noGPU := make([][]byte, 64)
	for i, q := range fresh.take(len(noGPU)) {
		noGPU[i] = rawBody(q.direct.Stencil, "")
	}
	r.layer("serve.decode_us", probe(math.MaxInt, func(i int) { inProcess(noGPU[i%len(noGPU)]) })/1e3)

	// Encode: the encoding/json call serve makes on a prediction.
	preds := make([]*core.ServePrediction, len(hot))
	total := 0
	for i, want := range bed.hotWant {
		preds[i] = new(core.ServePrediction)
		if err := json.Unmarshal(want, preds[i]); err != nil {
			panic(err) // bytes this process marshalled
		}
		total += len(want)
	}
	r.layer("serve.encode_us", probe(math.MaxInt, func(i int) {
		_, _ = json.Marshal(preds[i%len(preds)])
	})/1e3)
	r.layer("serve.resp_bytes", float64(total)/float64(len(bed.hotWant)))
}

// batchProbes times the coalescer alone: a scorer that does nothing
// behind the shipped window and batch size.
func batchProbes(r *run) {
	noop := func(reqs []int) []batch.Outcome[int] { return make([]batch.Outcome[int], len(reqs)) }
	ctx := context.Background()
	co := batch.New(batch.Options[int]{Window: serve.DefaultBatchWindow, MaxBatch: serve.DefaultBatchSize}, noop)
	r.layer("batch.lone_wait_us", probe(math.MaxInt, func(i int) { _, _ = co.Do(ctx, i) })/1e3)
	r.layer("batch.pair_wait_us", probeConcurrent(runtime.NumCPU(), func() { _, _ = co.Do(ctx, 0) })/1e3)
	co.Close()
	co = batch.New(batch.Options[int]{Window: -1, MaxBatch: serve.DefaultBatchSize}, noop)
	r.layer("batch.handoff_us", probe(math.MaxInt, func(i int) { _, _ = co.Do(ctx, i) })/1e3)
	co.Close()
}

// probeConcurrent is probe with callers goroutines calling fn at once;
// the median is over all their calls.
func probeConcurrent(callers int, fn func()) float64 {
	per := make([][]float64, callers)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for len(per[c]) < 3 || time.Since(begin) < probeBudget {
				t0 := time.Now()
				fn()
				per[c] = append(per[c], float64(time.Since(t0).Nanoseconds()))
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Float64s(all)
	return quantile(all, 0.5)
}

// coreProbes calls the predict pipeline directly, the way serve's scoring
// lane does, and then its parts one by one.
func coreProbes(r *run, spec serveSpec, bed *serveBed, fw *core.Framework, fresh *freshPool) {
	ctx := context.Background()
	arena := core.NewServeArena()
	prefix := "core." + spec.kind.String() + "."
	hot := make([]core.ServeRequest, len(bed.hot))
	for i, q := range bed.hot {
		hot[i] = q.direct
	}
	var b1DistinctF64 float64
	for _, lane := range []serve.Lane{serve.LaneF64, serve.LaneF32} {
		call := func(reqs []core.ServeRequest) {
			if lane == serve.LaneF32 {
				fw.ServePredictBatchF32(ctx, reqs, arena)
			} else {
				fw.ServePredictBatch(ctx, reqs)
			}
		}
		call(hot) // warm
		name := prefix + string(lane)
		r.layer(name+".b1_hot_us", probe(math.MaxInt, func(i int) { call(hot[i%len(hot) : i%len(hot)+1]) })/1e3)
		allocs, _ := mallocsDuring(func() {
			for i := range hot {
				call(hot[i : i+1])
			}
		})
		r.layer("core.allocs_per_req."+string(lane), allocs/float64(len(hot)))

		one := directOf(fresh.take(256))
		b1 := probe(len(one), func(i int) { call(one[i : i+1]) }) / 1e3
		r.layer(name+".b1_distinct_us", b1)
		if lane == serve.LaneF64 {
			b1DistinctF64 = b1
		}
		many := directOf(fresh.take(8 * 32))
		r.layer(name+".b32_distinct_us", probe(8, func(i int) { call(many[32*i : 32*i+32]) })/32/1e3)
	}

	// The parts, each on inputs it has not seen. Tuning runs on its own
	// cold simulator; classify and regress never touch one.
	parts := directOf(fresh.take(256))
	classify := probe(len(parts), func(i int) { _, _, _ = fw.PredictClassTrained(parts[i].GPU, parts[i].Stencil) }) / 1e3
	oc := fw.Grouping.RepOC(0)
	rng := rand.New(rand.NewSource(r.seed))
	archs := fw.Dataset.Archs
	regress := probe(len(parts), func(i int) {
		s := parts[i].Stencil
		fw.Trained.Regressors[s.Dims].PredictStencilSeconds(s, oc, opt.Sample(oc, s.Dims, rng), archs)
	}) / 1e3
	kind := spec.kind.String()
	r.layer("core."+kind+".classify_us", classify)
	r.layer("core."+kind+".regress_us", regress)

	model := sim.New()
	budget := fw.Cfg.SamplesPerOC
	tuned := 0
	tune := func(i int) {
		tuned = max(tuned, i+1)
		arch, err := gpu.ByName(parts[i].GPU)
		if err != nil {
			panic(err) // the pool names catalog GPUs only
		}
		// An OC whose every sampled setting crashes is an error here and
		// a fall-through to the next class in core; either way it is
		// budget evaluations.
		_, _ = tuner.Random{}.Tune(model, sim.DefaultWorkload(parts[i].Stencil), oc, arch, budget, int64(i))
	}
	cold := probe(len(parts), tune) / 1e3
	r.layer("tuner.tune_cold_us", cold)
	r.layer("tuner.tune_warm_us", probe(tuned, tune)/1e3) // the same cells and seeds again: every sample a memo hit
	r.layer("core.assemble_us", b1DistinctF64-classify-cold-regress)
}

func directOf(reqs []request) []core.ServeRequest {
	out := make([]core.ServeRequest, len(reqs))
	for i, q := range reqs {
		out[i] = q.direct
	}
	return out
}

// simProbes times the simulator under the tuner: compiling a cell's
// evaluator, then evaluating samples it has and has not memoized.
func simProbes(r *run, fw *core.Framework, fresh *freshPool) {
	model := sim.New()
	arch := fw.Dataset.Archs[0]
	cells := fresh.take(256)
	r.layer("sim.compile_us", probe(len(cells), func(i int) {
		_, _ = model.Evaluator(sim.DefaultWorkload(cells[i].direct.Stencil), arch)
	})/1e3)

	s := cells[0].direct.Stencil
	eval := model.CellFn(sim.DefaultWorkload(s), arch)
	type sample struct {
		oc opt.Opt
		p  opt.Params
	}
	rng := rand.New(rand.NewSource(r.seed))
	seen := map[sample]bool{}
	var samples []sample
	for _, oc := range opt.Combinations() {
		for k := 0; k < 64; k++ {
			sm := sample{oc, opt.Sample(oc, s.Dims, rng)}
			if !seen[sm] {
				seen[sm] = true
				samples = append(samples, sm)
			}
		}
	}
	const batchOf = 16
	sweep := func() float64 {
		return probeBatched(len(samples), batchOf, func(i int) { _, _ = eval(samples[i].oc, samples[i].p) })
	}
	r.layer("sim.eval_cold_ns", sweep()) // every sample a miss
	r.layer("sim.eval_warm_ns", sweep()) // the same samples: every one a hit
}

// rowsPerRequest is how many rows a regressor scores for one request: one
// per catalog GPU.
const rowsPerRequest = 4

// instancesOf returns n dataset instances of one dimensionality, evenly
// spaced over the dataset so every stencil contributes (the first n would
// all come from the first few stencils).
func instancesOf(fw *core.Framework, dims, n int) []profile.Instance {
	var all []profile.Instance
	for _, in := range fw.Dataset.Instances {
		if fw.Dataset.Stencils[in.StencilIdx].Dims == dims {
			all = append(all, in)
		}
	}
	if len(all) <= n {
		return all
	}
	out := make([]profile.Instance, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

// stencilsOf returns up to 256 of the pool's stencils of one
// dimensionality (model rows carry no state, so reuse is harmless).
func stencilsOf(fresh *freshPool, dims int) []core.ServeRequest {
	var out []core.ServeRequest
	for _, q := range fresh.reqs {
		if q.direct.Stencil.Dims == dims {
			if out = append(out, q.direct); len(out) == 256 {
				break
			}
		}
	}
	return out
}

// treeProbes scores rows on the fitted boosted trees themselves, one
// request's worth per call: one row for a classifier, one per catalog GPU
// for the regressor (which is reached through core, so its row includes
// the feature encoding).
func treeProbes(r *run, fw *core.Framework, fresh *freshPool) {
	arch := fw.Dataset.Archs[0].Name
	gbdt, ok := fw.Trained.Classifiers[arch][2].(*tree.GBDT)
	if !ok {
		panic(fmt.Sprintf("bench: tree fixture's classifier is %T", fw.Trained.Classifiers[arch][2]))
	}
	sts := stencilsOf(fresh, 2)
	rows := make([][]float64, len(sts))
	rows32 := make([][]float32, len(sts))
	for i, q := range sts {
		rows[i] = tensor.Features(q.Stencil)
		rows32[i] = toF32(rows[i])
	}
	r.layer("tree.gbdt_row_ns.f64", probeBatched(len(rows), 16, func(i int) { gbdt.PredictProbaBatch(rows[i : i+1]) }))
	if compiled, err := gbdt.Compile(); err == nil {
		out := make([]float32, compiled.Classes())
		r.layer("tree.gbdt_row_ns.f32", probeBatched(len(rows32), 16, func(i int) { compiled.PredictProbaBatchF32(rows32[i:i+1], out) }))
	}
	r.layer("tree.gbreg_row_ns.f64", regressorRowNs(fw))
}

// regressorRowNs times the 2-D regressor on dataset instances, four rows
// a call, per row.
func regressorRowNs(fw *core.Framework) float64 {
	ins := instancesOf(fw, 2, 1024)
	reg := fw.Trained.Regressors[2]
	return probe(len(ins)/rowsPerRequest, func(i int) {
		_, _ = reg.PredictSecondsBatch(ins[rowsPerRequest*i : rowsPerRequest*i+rowsPerRequest])
	}) / rowsPerRequest
}

// nnProbes does the same on the networks, and times the GEMM under their
// largest convolution at the shape one request gives it.
func nnProbes(r *run, fw *core.Framework, fresh *freshPool) {
	arch := fw.Dataset.Archs[0].Name
	for _, dims := range []int{2, 3} {
		net, ok := fw.Trained.Classifiers[arch][dims].(*nn.Classifier)
		if !ok {
			panic(fmt.Sprintf("bench: nn fixture's classifier is %T", fw.Trained.Classifiers[arch][dims]))
		}
		sts := stencilsOf(fresh, dims)
		rows := make([][]float64, len(sts))
		rows32 := make([][]float32, len(sts))
		for i, q := range sts {
			rows[i] = make([]float64, tensor.VolumeLen(dims))
			if err := tensor.AssignInto(q.Stencil, rows[i]); err != nil {
				panic(err) // generated stencils are within MaxOrder
			}
			rows32[i] = toF32(rows[i])
		}
		name := fmt.Sprintf("nn.convnet%dd_row_us", dims)
		r.layer(name+".f64", probe(len(rows), func(i int) { net.PredictProbaBatch(rows[i : i+1]) })/1e3)
		if compiled, err := net.CompileF32(); err == nil {
			out := make([]float32, compiled.Classes())
			r.layer(name+".f32", probe(len(rows32), func(i int) { compiled.PredictProbaBatchF32(rows32[i:i+1], out) })/1e3)
		}
	}
	r.layer("nn.convmlp_row_us.f64", regressorRowNs(fw)/1e3)

	// ConvNet's second 3-D convolution, one row: im2col gives 5^3 output
	// positions x (8 channels x 3^3 taps), times 16 filters. The
	// operation count is computed from the shape, not measured.
	const m, k, n = 125, 216, 16
	flops := 2.0 * m * k * n
	rng := rand.New(rand.NewSource(r.seed))
	a, b, c := linalg.New(m, k), linalg.New(n, k), linalg.New(m, n)
	a32, b32, c32 := linalg.NewF32(m, k), linalg.NewF32(n, k), linalg.NewF32(m, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
		a32.Data[i] = float32(a.Data[i])
	}
	for i := range b.Data {
		b.Data[i] = rng.Float64()
		b32.Data[i] = float32(b.Data[i])
	}
	r.layer("linalg.gemm_gflops.f64", flops/probe(math.MaxInt, func(int) { linalg.GemmNT(c, a, b, 0) }))
	r.layer("linalg.gemm_gflops.f32", flops/probe(math.MaxInt, func(int) { linalg.GemmNTF32(c32, a32, b32) }))
}

func toF32(row []float64) []float32 {
	out := make([]float32, len(row))
	for i, v := range row {
		out[i] = float32(v)
	}
	return out
}

// sloRate finds the highest of a few fixed arrival rates the server holds
// within the latency limit: p95 from due time at most openSLO in both
// halves of a one-second step (a growing backlog fails the second half).
func sloRate(r *run, spec serveSpec, bed *serveBed) error {
	held := 0.0
	for _, rate := range []float64{200, 400, 800, 1600} {
		step := spec
		step.openRate = rate
		st := newStream(step, bed, r.seed+int64(rate), int(rate), nil)
		// The measured stream used the head of the pool; start past it.
		st.freshN.Store(int64(len(bed.pool) / 2))
		shots, _, dry := st.phase(0, time.Second)
		if _, _, err := st.verifyKept(r); err != nil {
			return err
		}
		if dry || !holds(shots[:len(shots)/2]) || !holds(shots[len(shots)/2:]) {
			break
		}
		held = rate
	}
	r.layer("loadgen.slo_rate_rps", held)
	return nil
}

// holds reports whether the shots' p95 from due time is within openSLO
// and every one of them was answered correctly.
func holds(shots []shot) bool {
	lat := make([]float64, len(shots))
	for i, s := range shots {
		if !s.ok {
			return false
		}
		lat[i] = float64(s.latency())
	}
	sort.Float64s(lat)
	return quantile(lat, 0.95) <= float64(openSLO)
}
