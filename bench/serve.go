package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/serve"
)

// serveSpec is one traffic mix against one fixture.
type serveSpec struct {
	kind  modelKind
	lane  serve.Lane // "" rides the server's default (f64)
	hot   bool       // the stream includes the 24 named bodies
	fresh bool       // the stream includes never-repeated generated stencils
	// openRate, when set, makes the loop open at that many requests per
	// second; otherwise nproc closed-loop callers.
	openRate float64
	// poolRate sizes the generated pool: pairs >= 4 x poolRate x (warm-up
	// + interval), poolRate being about what the workload does today.
	poolRate float64
	// verifyEvery: every n-th generated request's answer is kept and
	// compared with the direct call after the clock stops. Named bodies
	// are compared on every request (the 24 answers are precomputed).
	verifyEvery int
}

var (
	serveHot        = serveSpec{kind: treeModels, hot: true}
	serveDistinct   = serveSpec{kind: treeModels, fresh: true, poolRate: 1200, verifyEvery: 16}
	serveDistinctNN = serveSpec{kind: nnModels, lane: serve.LaneF32, fresh: true, poolRate: 500, verifyEvery: 16}
	serveMixedOpen  = serveSpec{kind: treeModels, hot: true, fresh: true, openRate: 400, poolRate: 80, verifyEvery: 4}
)

const (
	// openSLO is the latency limit of the open loop, from due time.
	openSLO = 10 * time.Millisecond
	// hotShare is the share of open-loop requests that are named bodies.
	hotShare = 0.8
	// warmUp runs before the measured interval and is discarded: connections
	// open, the heap reaches its working size, the named bodies enter the
	// sim memo.
	warmUp = 2 * time.Second
)

// serveBed is everything a serve workload sets up.
type serveBed struct {
	fx      *fixture
	hot     []request
	hotWant [][]byte
	pool    []request
}

func (b *serveBed) close() { b.fx.close() }

func (s serveSpec) query() string {
	if s.lane == "" {
		return ""
	}
	return "?lane=" + string(s.lane)
}

// setUp collects, trains and serves the fixture, precomputes the answers
// to the named bodies and generates the pool.
func (s serveSpec) setUp(r *run, opts serve.Options) (*serveBed, error) {
	fx, err := newFixture(r.ctx, s.kind, opts)
	if err != nil {
		return nil, err
	}
	bed := &serveBed{fx: fx}
	if bed.hot, err = hotRequests(); err != nil {
		fx.close()
		return nil, err
	}
	direct := make([]core.ServeRequest, len(bed.hot))
	for i, q := range bed.hot {
		direct[i] = q.direct
	}
	if bed.hotWant, err = fx.expected(r.ctx, s.lane, direct); err != nil {
		fx.close()
		return nil, err
	}
	if s.fresh {
		pairs := int(4 * s.poolRate * (warmUp.Seconds() + r.seconds))
		if bed.pool, err = distinctRequests(r.seed, pairs); err != nil {
			fx.close()
			return nil, err
		}
	}
	return bed, nil
}

// stream decides what request i of the run is and checks its answer.
type stream struct {
	spec serveSpec
	bed  *serveBed
	// plan[i] is true where request i is a named body (open loop only;
	// closed loops are all-hot or all-fresh).
	plan []bool
	// hotN and freshN count requests of each kind handed out so far.
	hotN, freshN atomic.Int64
	bufs         []bytes.Buffer
	// kept[c] are the answers client c set aside for checking.
	kept [][]keptAnswer
	rec  *recorder
}

type keptAnswer struct {
	shot int // stream position, to mark the shot failed on a mismatch
	pool int
	body []byte
}

func newStream(spec serveSpec, bed *serveBed, seed int64, n int, rec *recorder) *stream {
	st := &stream{spec: spec, bed: bed, rec: rec}
	st.bufs = make([]bytes.Buffer, runtime.NumCPU())
	st.kept = make([][]keptAnswer, runtime.NumCPU())
	if spec.hot && spec.fresh {
		rng := rand.New(rand.NewSource(seed))
		st.plan = make([]bool, n)
		for i := range st.plan {
			st.plan[i] = rng.Float64() < hotShare
		}
	}
	return st
}

// do sends request i from client c and reports whether the answer was a
// 200 that matched (named bodies) or a 200 (generated ones, checked
// later if kept). It reports dry when the pool has run out.
func (st *stream) do(c, i int) (ok, dry bool) {
	hot := st.isHot(i)
	root := st.rec.begin("loadgen.request", 0, int64(i))
	defer st.rec.end(root)
	buf := &st.bufs[c]
	if hot {
		k := int(st.hotN.Add(1)-1) % len(st.bed.hot)
		id := st.rec.begin("serve.roundtrip", root, int64(i))
		status, err := st.bed.fx.post(st.spec.query(), st.bed.hot[k].body, buf)
		st.rec.end(id)
		return err == nil && status == http.StatusOK && bytes.Equal(buf.Bytes(), st.bed.hotWant[k]), false
	}
	k := int(st.freshN.Add(1) - 1)
	if k >= len(st.bed.pool) {
		return false, true
	}
	id := st.rec.begin("serve.roundtrip", root, int64(i))
	status, err := st.bed.fx.post(st.spec.query(), st.bed.pool[k].body, buf)
	st.rec.end(id)
	if err != nil || status != http.StatusOK {
		return false, false
	}
	if k%st.spec.verifyEvery == 0 {
		st.kept[c] = append(st.kept[c], keptAnswer{shot: i, pool: k, body: append([]byte(nil), buf.Bytes()...)})
	}
	return true, false
}

// phase runs one loop (warm-up or measured) over stream positions
// [from, from+n) for an open loop, or for d with a closed one.
func (st *stream) phase(from int, d time.Duration) (shots []shot, elapsed time.Duration, dry bool) {
	if st.spec.openRate > 0 {
		n := int(st.spec.openRate * d.Seconds())
		var ranDry atomic.Bool
		shots, elapsed = openLoop(runtime.NumCPU(), st.spec.openRate, n, func(c, i int) bool {
			ok, d := st.do(c, from+i)
			if d {
				ranDry.Store(true)
			}
			return ok
		})
		for i := range shots {
			shots[i].index += from
		}
		return shots, elapsed, ranDry.Load()
	}
	var cursor, stop atomic.Int64
	cursor.Store(int64(from))
	return closedLoop(runtime.NumCPU(), d,
		func() (int, bool) { return int(cursor.Add(1) - 1), stop.Load() == 0 },
		func(c, i int) bool {
			ok, d := st.do(c, i)
			if d {
				stop.Store(1)
			}
			return ok
		})
}

// verifyKept compares every kept answer with the direct call and returns
// the stream positions whose answers differ.
func (st *stream) verifyKept(r *run) (checked int, bad map[int]bool, err error) {
	bad = map[int]bool{}
	var all []keptAnswer
	for c := range st.kept {
		all = append(all, st.kept[c]...)
		st.kept[c] = nil
	}
	const chunk = 32
	for lo := 0; lo < len(all); lo += chunk {
		hi := min(lo+chunk, len(all))
		reqs := make([]core.ServeRequest, hi-lo)
		for j, k := range all[lo:hi] {
			reqs[j] = st.bed.pool[k.pool].direct
		}
		id := st.rec.begin("verify.direct", 0, int64(lo))
		want, err := st.bed.fx.expected(r.ctx, st.spec.lane, reqs)
		st.rec.end(id)
		if err != nil {
			return checked, bad, err
		}
		for j, k := range all[lo:hi] {
			checked++
			if !bytes.Equal(k.body, want[j]) {
				bad[k.shot] = true
			}
		}
	}
	return checked, bad, nil
}

// serveOutcome is one measured phase, verified.
type serveOutcome struct {
	shots   []shot
	elapsed time.Duration
	dry     bool
	before  serve.StatsResponse
	after   serve.StatsResponse
	checked int
}

// measure runs warm-up then the measured phase with /statsz read between
// phases (never during one: the harness has no connection to spare), and
// verifies the kept answers after the clock has stopped.
func (st *stream) measure(r *run, warm, d time.Duration) (serveOutcome, error) {
	var out serveOutcome
	warmShots, _, dry := st.phase(0, warm)
	out.dry = dry
	from := len(warmShots)
	if _, _, err := st.verifyKept(r); err != nil {
		return out, err
	}
	runtime.GC() // the measured phase starts from a collected heap, not from set-up's garbage
	var err error
	if out.before, err = st.bed.fx.statsz(); err != nil {
		return out, err
	}
	out.shots, out.elapsed, dry = st.phase(from, d)
	out.dry = out.dry || dry
	if out.after, err = st.bed.fx.statsz(); err != nil {
		return out, err
	}
	checked, bad, err := st.verifyKept(r)
	if err != nil {
		return out, err
	}
	out.checked = checked
	for i := range out.shots {
		if bad[out.shots[i].index] {
			out.shots[i].ok = false
		}
	}
	return out, nil
}

// runServe is the four serve workloads.
func runServe(r *run, spec serveSpec) (*row, error) {
	row := r.newRow()
	bed, setupS, err := setUp(func() (*serveBed, error) { return spec.setUp(r, serve.Options{}) }, (*serveBed).close)
	if err != nil {
		return nil, err
	}
	defer bed.close()

	d := r.interval()
	if r.traced() {
		d /= 4 // an untraced and a traced quarter; the rest of the time goes to the layer probes
	}
	planned := int(spec.openRate * (warmUp + 2*d).Seconds())
	st := newStream(spec, bed, r.seed, planned, nil)
	out, err := st.measure(r, warmUp, d)
	if err != nil {
		return nil, err
	}
	if r.traced() {
		// The same stream again with spans on; the untraced phase above
		// is the base of trace.overhead_share.
		base := describeStream(latencies(spec, out), out.elapsed.Seconds()).Rate
		st.rec = r.rec
		traced, err := st.measure(r, 0, d)
		if err != nil {
			return nil, err
		}
		r.layer("trace.overhead_share", 1-describeStream(latencies(spec, traced), traced.elapsed.Seconds()).Rate/base)
		out = traced
	}
	fillServeRow(row, st, out, setupS)
	if r.traced() {
		if err := serveLayers(r, spec, bed, out); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// good reports whether a shot counts toward ops_per_s: a verified 200,
// and in the open loop one that came back within the limit.
func good(spec serveSpec, s shot) bool {
	return s.ok && (spec.openRate == 0 || s.latency() <= openSLO)
}

// latencies turns a phase's shots into samples: due time, latency from
// due time, and whether the answer counts toward throughput.
func latencies(spec serveSpec, out serveOutcome) []timed {
	samples := make([]timed, len(out.shots))
	for i, s := range out.shots {
		samples[i] = timed{at: s.due.Seconds(), val: float64(s.latency()) / 1e6, good: good(spec, s)}
	}
	return samples
}

// fillServeRow turns a verified phase into the row's numbers and checks
// the workload's premises from the server's own counters.
func fillServeRow(row *row, st *stream, out serveOutcome, setupS float64) {
	spec := st.spec
	row.Seconds = out.elapsed.Seconds()
	var maxLate time.Duration
	slow, inline := 0, 0
	for _, s := range out.shots {
		if st.isHot(s.index) {
			inline++ // compared with the precomputed direct answer as it arrived
		}
		row.Attempted++
		if s.ok {
			row.Succeeded++
		} else {
			row.fail("request %d failed or answered differently from the direct call", s.index)
		}
		if !good(spec, s) {
			slow++
		}
		maxLate = max(maxLate, s.late())
	}
	dist := describeStream(latencies(spec, out), out.elapsed.Seconds())
	row.setGated(setupS, dist.Rate, dist)
	row.report("whole_interval_good_per_s", float64(len(out.shots)-slow)/out.elapsed.Seconds())
	row.report("answers_checked_against_direct_call", float64(out.checked+inline))
	if spec.openRate > 0 {
		row.report("open_slo_miss_share", float64(slow)/float64(len(out.shots)))
		row.report("loadgen_max_late_ms", float64(maxLate)/1e6)
	}
	if out.dry {
		row.Flags = append(row.Flags, "pool_exhausted")
	}

	sim := cacheDelta(out.before, out.after)
	row.report("sim_cache_hit_rate", sim.hitRate)
	row.report("batch_avg_size", batchAvg(out.before, out.after))
	switch {
	case spec.hot && !spec.fresh:
		row.check(sim.hitRate >= 0.99, "hot stream hit the sim memo on %.4f of lookups, want >= 0.99", sim.hitRate)
	case spec.fresh && !spec.hot:
		row.check(sim.hitRate <= 0.05, "distinct stream hit the sim memo on %.4f of lookups, want <= 0.05 (the pool repeated)", sim.hitRate)
	}
	f0, f1 := out.before.Faults, out.after.Faults
	expired := out.after.Endpoints["predict"].DeadlineExpired - out.before.Endpoints["predict"].DeadlineExpired
	row.check(f1.LoadShed == f0.LoadShed && f1.DegradedRequests == f0.DegradedRequests && expired == 0,
		"server shed %d, degraded %d, expired %d requests; the workload must not overload it",
		f1.LoadShed-f0.LoadShed, f1.DegradedRequests-f0.DegradedRequests, expired)
	row.check(!out.dry, "the generated pool ran dry: rate outgrew poolRate")
}

// isHot reports whether stream position i is a named body.
func (st *stream) isHot(i int) bool {
	if st.plan != nil {
		return st.plan[i%len(st.plan)]
	}
	return st.spec.hot
}

type simDelta struct {
	hitRate   float64
	evictions uint64
}

// cacheDelta is the sim memo's behaviour over the measured phase only,
// from counter differences: the cumulative hit_rate /statsz prints would
// carry set-up and warm-up.
func cacheDelta(a, b serve.StatsResponse) simDelta {
	hits := b.SimCache.Hits - a.SimCache.Hits
	misses := b.SimCache.Misses - a.SimCache.Misses
	d := simDelta{evictions: b.SimCache.Evictions - a.SimCache.Evictions}
	if hits+misses > 0 {
		d.hitRate = float64(hits) / float64(hits+misses)
	}
	return d
}

func batchAvg(a, b serve.StatsResponse) float64 {
	batches := b.Batch.Batches - a.Batch.Batches
	if batches == 0 {
		return 0
	}
	return float64(b.Batch.Requests-a.Batch.Requests) / float64(batches)
}
