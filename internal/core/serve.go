package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"

	"stencilmart/internal/gpu"
	"stencilmart/internal/ml"
	"stencilmart/internal/opt"
	"stencilmart/internal/par"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/tuner"
)

// This file is the serving pipeline — the predict-cheaply half of the
// paper's contract. It exists once: servePipeline admits, dedups,
// classifies, tunes, regresses and assembles a batch, scoring on the
// compiled float32 models (score.go). ServePredictBatch,
// ServePredictBatchF32 and ServePredict are entry points onto that one
// body. The float64 models stay for training, cross-validation and the
// experiments.

// ServeRequest is one item of a batched serving call.
type ServeRequest struct {
	GPU     string
	Stencil stencil.Stencil
}

// ServeOutcome is one request's result slot in a batch: a prediction or
// an error, never both.
type ServeOutcome struct {
	Prediction *ServePrediction
	Err        error
}

// RentAdvice is the cross-GPU verdict for one prediction: which catalog
// GPU the regressor expects to run the tuned kernel fastest, and which
// rentable GPU minimizes time x rental price (the Figs. 14-15 metrics).
type RentAdvice struct {
	// Target echoes the requested GPU and its predicted seconds.
	Target        string  `json:"target"`
	TargetSeconds float64 `json:"target_seconds"`
	// BestArch is the predicted-fastest GPU across the catalog.
	BestArch    string  `json:"best_arch"`
	BestSeconds float64 `json:"best_seconds"`
	// Speedup is TargetSeconds / BestSeconds (1 means the target already
	// wins).
	Speedup float64 `json:"speedup"`
	// BestCostArch minimizes seconds x $/hr among rentable GPUs; empty
	// when no catalog GPU has a rental price.
	BestCostArch string `json:"best_cost_arch,omitempty"`
	// BestCostValue is that minimal seconds x $/hr product.
	BestCostValue float64 `json:"best_cost_value,omitempty"`
	// Rent is the verdict: true when a different GPU than the target is
	// predicted to be faster.
	Rent bool `json:"rent"`
}

// ServePrediction is the one-shot inference result for an unseen stencil:
// everything the prediction service returns from a single request.
type ServePrediction struct {
	Stencil string    `json:"stencil"`
	GPU     string    `json:"gpu"`
	Class   int       `json:"class"`
	Proba   []float64 `json:"proba"`
	// OC is the representative optimization combination of the predicted
	// class (after crash fallback across classes).
	OC string `json:"oc"`
	// Params is the best parameter setting found for OC on the target GPU
	// under the configured search budget.
	Params opt.Params `json:"params"`
	// TunedSeconds is the simulated execution time of (OC, Params) on the
	// target GPU.
	TunedSeconds float64 `json:"tuned_seconds"`
	// ArchNames and PredictedSeconds are the regressor's cross-GPU times
	// for the tuned kernel, index-aligned.
	ArchNames        []string   `json:"arch_names"`
	PredictedSeconds []float64  `json:"predicted_seconds"`
	Advice           RentAdvice `json:"advice"`
}

// ErrBadRequest marks the serving errors the request itself caused — a
// GPU outside the dataset, an invalid stencil, a (GPU, dims) pair the
// trained set does not cover. errors.Is(err, ErrBadRequest) separates
// them from server-side failures (tuning, model panics, deadlines)
// without reading error text, which can embed client-chosen names.
var ErrBadRequest = errors.New("core: request cannot be served")

// requestError tags an admission error as ErrBadRequest, leaving its
// text untouched.
type requestError struct{ error }

func (e requestError) Unwrap() error      { return e.error }
func (requestError) Is(target error) bool { return target == ErrBadRequest }

// ServePredictBatch runs the classify -> tune -> regress -> rent pipeline
// over many requests at once, returning one outcome per request,
// index-aligned. The compiled f32 models score over an arena from a
// package pool. Identical requests collapse to one pipeline pass (serving
// is a deterministic function of (GPU, stencil)); distinct ones group
// their model calls — classification per (GPU, dims) classifier,
// regression per dims — and tune in parallel. Every batched model path
// scores rows independently, so a batch of N is bitwise N independent
// answers.
//
// The context carries the batch's deadline: it is checked before
// classification and before regression, and tuning stops dispatching
// when it expires, so an expired batch fails its remaining items with the
// context error. A nil context never expires.
//
// The method is safe for concurrent use exactly when f.ServeConcurrent
// holds; nn models reuse forward scratch, so their calls are serialized.
func (f *Framework) ServePredictBatch(ctx context.Context, reqs []ServeRequest) []ServeOutcome {
	arena := arenas.Get().(*ServeArena)
	defer arenas.Put(arena)
	return servePipeline(ctx, f, reqs, arena)
}

// arenas holds ServePredictBatch's scoring scratch: each call takes its
// own, since tree-model calls run concurrently.
var arenas = sync.Pool{New: func() any { return NewServeArena() }}

// ServePredictBatchF32 is ServePredictBatch over the caller's arena
// (reset on entry; nil gets a private one), allocating nothing in model
// scoring once it is warm but the per-item probability and time vectors,
// which outlive it. Concurrent calls are safe exactly when
// f.ServeConcurrent holds, each with its own arena.
func (f *Framework) ServePredictBatchF32(ctx context.Context, reqs []ServeRequest, arena *ServeArena) []ServeOutcome {
	if arena == nil {
		arena = NewServeArena()
	}
	return servePipeline(ctx, f, reqs, arena)
}

// ServePredict is a batch of one: classify the stencil, tune the
// predicted class's representative OC on the target GPU (falling back
// through lower-probability classes if every setting of a representative
// crashes), predict the tuned kernel's time on every catalog GPU in one
// regressor pass, and derive the rent-or-not verdict.
func (f *Framework) ServePredict(archName string, s stencil.Stencil) (*ServePrediction, error) {
	out := f.ServePredictBatch(context.Background(), []ServeRequest{{GPU: archName, Stencil: s}})[0]
	return out.Prediction, out.Err
}

// serveItem carries one request through the pipeline. A stage that fails
// an item records the error in its outcome slot and later stages skip it.
type serveItem struct {
	idx int
	req ServeRequest
	out *ServeOutcome

	// primary points at the first batchmate with the same (GPU, stencil)
	// identity; a non-nil primary means this item skips the pipeline and
	// copies the primary's outcome.
	primary *serveItem

	arch  gpu.Arch
	seed  int64 // tuning seed, from the request's identity
	class int
	proba []float64
	oc    opt.Opt
	tuned tuner.Result
	times []float64
}

func (it *serveItem) fail(err error) { it.out.Err = err }

// failLive records err on every item that has not already failed.
func failLive(items []*serveItem, err error) {
	for _, it := range live(items) {
		it.fail(err)
	}
}

// live filters the items that have not failed yet.
func live(items []*serveItem) []*serveItem {
	out := items[:0:0]
	for _, it := range items {
		if it.out.Err == nil {
			out = append(out, it)
		}
	}
	return out
}

// servePipeline is the one body every serving entry point runs, over
// arena (reset here). Error precedence is fixed by its order: untrained
// framework, f32 compile, then per request unknown GPU, invalid stencil,
// uncovered classifier (all ErrBadRequest), a classifier panic,
// uncovered regressor (ErrBadRequest), tuning failure, the context
// error, a regressor panic.
func servePipeline(ctx context.Context, f *Framework, reqs []ServeRequest, arena *ServeArena) []ServeOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]ServeOutcome, len(reqs))
	if len(reqs) == 0 {
		return outs
	}
	ct, err := f.CompiledF32()
	if err != nil {
		for i := range outs {
			outs[i].Err = err
		}
		return outs
	}
	arena.Reset()
	sc := &scorer{ct: ct, arena: arena, archs: f.Dataset.Archs}

	// Admit, then collapse duplicates: the first item with a given (GPU,
	// stencil) identity is the primary that rides the pipeline; the rest
	// copy its outcome at the end. Items that fail admission keep their
	// own (identical) errors.
	items := make([]serveItem, len(reqs))
	cls := make([]ml.ClassifierF32, len(reqs))
	regs := make([]*CompiledRegressorF32, len(reqs))
	seen := make(map[string]*serveItem, len(reqs))
	var primaries, dups []*serveItem
	var key []byte // one buffer for every request's identity bytes
	for i, req := range reqs {
		it := &items[i]
		*it = serveItem{idx: i, req: req, out: &outs[i]}
		_, arch, err := f.ArchByName(req.GPU)
		if err == nil {
			err = req.Stencil.Validate()
		}
		if err == nil {
			cls[i], err = classifierIn(ct.classifiers, req.GPU, req.Stencil.Dims)
		}
		if err != nil {
			it.fail(requestError{err})
			continue
		}
		it.arch = arch
		key, it.seed = serveIdentity(key[:0], f.Cfg.Seed, req)
		if p, ok := seen[string(key)]; ok {
			it.primary = p
			dups = append(dups, it)
			continue
		}
		seen[string(key)] = it
		primaries = append(primaries, it)
	}

	if err := ctx.Err(); err != nil {
		failLive(primaries, err)
	} else {
		scoreGroups(primaries, cls, sc.classify, sc.classifyOne)
		for _, it := range live(primaries) {
			reg, ok := ct.regressors[it.req.Stencil.Dims]
			if !ok {
				it.fail(requestError{fmt.Errorf("core: no trained %d-D regressor", it.req.Stencil.Dims)})
				continue
			}
			regs[it.idx] = reg
		}
		f.tuneServeItems(ctx, primaries)
		if err := ctx.Err(); err != nil {
			failLive(primaries, err)
		} else {
			scoreGroups(primaries, regs, sc.regress, sc.regressOne)
		}
	}

	for _, it := range live(primaries) {
		it.out.Prediction = it.assemble(f.Dataset.Archs)
	}
	for _, it := range dups {
		*it.out = *it.primary.out
	}
	return outs
}

// serveIdentity spells a request's full identity into b — target GPU,
// stencil name, dimensionality and exact point set, the inputs the
// serving pipeline is a deterministic function of — as
// "GPU\x00name\x00dims|dx,dy,dz|…", the batch's dedup key. The same pass
// derives the request's tuning seed, so identical requests tune
// identically (and, from the cell's second request on, out of its sim
// memo): FNV-1a over GPU, name and the point spelling — the key without
// its separators and dims, the bytes the seed has always covered, so
// every served body is unchanged.
func serveIdentity(b []byte, base int64, r ServeRequest) (key []byte, seed int64) {
	h := fnv.New64a()
	b = append(b, r.GPU...)
	h.Write(b)
	b = append(b, 0)
	n := len(b)
	b = append(b, r.Stencil.Name...)
	h.Write(b[n:])
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(r.Stencil.Dims), 10)
	n = len(b)
	for _, p := range r.Stencil.Points {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(p.Dx), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.Dy), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.Dz), 10)
	}
	h.Write(b[n:])
	return b, base + int64(h.Sum64()&0x7fffffff)
}

// scoreGroups is the model-call scaffold both scoring stages share: live
// items group by model handle in first-seen order (handles is indexed by
// item idx), each group scores through one batched call, and a group
// whose batched call fails — a panic a single poisoned row triggers — is
// retried item by item so only the bad request fails. Batched model
// paths score rows independently, so grouping never changes a result.
func scoreGroups[H comparable](items []*serveItem, handles []H, all func(H, []*serveItem) error, one func(H, *serveItem) error) {
	groups := make(map[H][]*serveItem)
	var order []H
	for _, it := range live(items) {
		h := handles[it.idx]
		if _, ok := groups[h]; !ok {
			order = append(order, h)
		}
		groups[h] = append(groups[h], it)
	}
	for _, h := range order {
		if all(h, groups[h]) == nil {
			continue
		}
		for _, it := range groups[h] {
			if err := one(h, it); err != nil {
				it.fail(err)
			}
		}
	}
}

// recoverAs converts a panic in the deferring function into *err, named
// after the model call that raised it.
func recoverAs(err *error, what string) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("core: %s panicked: %v", what, v)
	}
}

// tuneServeItems tunes every live item's representative OC concurrently.
// The simulator layer is concurrency-safe and each item's tuning seed
// derives from its request, so parallel tuning returns exactly what
// serial tuning would. Errors land in item slots; the worker fn never
// fails, so with a live context ForEach runs every item. A context that
// expires mid-pass stops dispatch (in-flight items finish); the caller's
// context check then fails everything still live.
func (f *Framework) tuneServeItems(ctx context.Context, items []*serveItem) {
	todo := live(items)
	tune := func(it *serveItem) (err error) {
		defer recoverAs(&err, "tuning")
		it.oc, it.tuned, err = f.tuneForClass(it.req.GPU, it.req.Stencil, it.arch, it.proba, it.seed)
		return err
	}
	_ = par.ForEach(ctx, len(todo), 0, func(i int) error {
		if err := tune(todo[i]); err != nil {
			todo[i].fail(err)
		}
		return nil
	})
}

// tuneForClass tunes the representative OC of the most probable class on
// the target GPU, falling back through the class order when every sampled
// setting of a representative crashes. The tuning seed derives from the
// request (serveIdentity), so identical requests tune identically (and
// hit the cell's sim memo) no matter which batch or goroutine carries
// them.
func (f *Framework) tuneForClass(archName string, s stencil.Stencil, arch gpu.Arch, proba []float64, seed int64) (opt.Opt, tuner.Result, error) {
	w := sim.DefaultWorkload(s)
	for _, c := range classOrder(proba) {
		oc := f.Grouping.RepOC(c)
		res, err := (tuner.Random{}).Tune(f.Model, w, oc, arch, f.Cfg.SamplesPerOC, seed)
		if err == nil {
			return oc, res, nil
		}
	}
	return 0, tuner.Result{}, fmt.Errorf("core: no runnable OC for %s on %s", s.Name, archName)
}

// assemble builds the item's ServePrediction.
func (it *serveItem) assemble(archs []gpu.Arch) *ServePrediction {
	names := make([]string, len(archs))
	for i, a := range archs {
		names[i] = a.Name
	}
	return &ServePrediction{
		Stencil:          it.req.Stencil.Name,
		GPU:              it.req.GPU,
		Class:            it.class,
		Proba:            it.proba,
		OC:               it.oc.String(),
		Params:           it.tuned.Params,
		TunedSeconds:     it.tuned.Time,
		ArchNames:        names,
		PredictedSeconds: it.times,
		Advice:           rentAdvice(it.req.GPU, archs, it.times),
	}
}

// rentAdvice derives the cross-GPU verdict from index-aligned predicted
// times.
func rentAdvice(target string, archs []gpu.Arch, times []float64) RentAdvice {
	adv := RentAdvice{Target: target, BestCostValue: math.Inf(1)}
	best := math.Inf(1)
	for i, a := range archs {
		if a.Name == target {
			adv.TargetSeconds = times[i]
		}
		if times[i] < best {
			best = times[i]
			adv.BestArch = a.Name
			adv.BestSeconds = times[i]
		}
		if a.HasRental() {
			if v := times[i] * a.RentalPerHour; v < adv.BestCostValue {
				adv.BestCostValue = v
				adv.BestCostArch = a.Name
			}
		}
	}
	if math.IsInf(adv.BestCostValue, 1) {
		adv.BestCostValue = 0
	}
	if adv.BestSeconds > 0 {
		adv.Speedup = adv.TargetSeconds / adv.BestSeconds
	}
	adv.Rent = adv.BestArch != "" && adv.BestArch != target
	return adv
}

// classifierIn resolves the (archName, dims) classifier of a trained set
// in either numeric format, with the coverage errors admission reports.
func classifierIn[C any](byArch map[string]map[int]C, archName string, dims int) (C, error) {
	byDims, ok := byArch[archName]
	if !ok {
		var zero C
		return zero, fmt.Errorf("core: no trained classifier for GPU %q", archName)
	}
	cls, ok := byDims[dims]
	if !ok {
		return cls, fmt.Errorf("core: no trained %d-D classifier for GPU %q", dims, archName)
	}
	return cls, nil
}

// PredictClassTrained scores an arbitrary stencil with the checkpointed
// classifier for the named GPU, returning the merged class and the
// per-class probabilities. No training runs. Callers sharing a framework
// across goroutines must serialize calls (nn models reuse forward
// scratch).
func (f *Framework) PredictClassTrained(archName string, s stencil.Stencil) (int, []float64, error) {
	tr, err := f.requireTrained()
	if err != nil {
		return 0, nil, err
	}
	if err := s.Validate(); err != nil {
		return 0, nil, err
	}
	cls, err := classifierIn(tr.Classifiers, archName, s.Dims)
	if err != nil {
		return 0, nil, err
	}
	proba := probaOne(cls, classEncode(tr.ClassifierKind, s))
	return ml.ArgMax(proba), proba, nil
}
