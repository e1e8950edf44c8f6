package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// metricSpec names one metric and its unit; BENCHMARK.json carries the
// same names with direction and bound (a test keeps the two in step).
type metricSpec struct {
	name, unit string
}

// endToEnd is what every gated run reports, whatever the workload. The
// same three questions are asked of a /predict stream, a collection and a
// train-to-checkpoint cycle; README.md says what an operation is on each.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms", "ms"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one run of one workload: what was asked, on what machine, how
// much was attempted and verified, and the numbers.
type row struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"measured_seconds"`
	Env       environment       `json:"env"`
	Attempted int               `json:"attempted"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Latency is the operation latency behind op_ms: the per-slice numbers
	// the gated value was taken over, and the tail and whole-interval
	// percentiles reported but not gated.
	Latency *distribution `json:"op_latency_ms,omitempty"`
	// Reported holds named quantities of this workload that are shown
	// but not gated (resume_s, load_s, hit rates, lateness).
	Reported map[string]float64 `json:"reported,omitempty"`
	Digests  map[string]string  `json:"digests,omitempty"`
	Flags    []string           `json:"flags,omitempty"`
	// Failures describes the first few failed operations or checks.
	Failures []string `json:"failures,omitempty"`
}

// fail records a failed operation or check.
func (r *row) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check records a property the workload must have; a violation is a
// failed operation, so no number survives a broken premise.
func (r *row) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		r.Succeeded++
		return
	}
	r.fail("check: "+format, args...)
}

func (r *row) report(name string, v float64) {
	if r.Reported == nil {
		r.Reported = map[string]float64{}
	}
	r.Reported[name] = v
}

// setGated fills the three end-to-end metrics and reports the tail and
// the ordinary whole-interval statistics beside them.
func (r *row) setGated(setup, opsPerS float64, d distribution) {
	r.Latency = &d
	r.Metrics = map[string]metric{
		"setup_s":   {setup, "s"},
		"ops_per_s": {opsPerS, "1/s"},
		"op_ms":     {d.Op, "ms"},
	}
	r.report("op_tail_ms", d.Tail)
	for name, v := range d.Whole {
		r.report("whole_interval_"+name+"_ms", v)
	}
}

// run is what a workload is given.
type run struct {
	ctx     context.Context
	name    string
	seed    int64
	seconds float64
	dir     string // scratch directory inside the out directory
	// rec is nil unless this is the traced run; layers collects the
	// per-layer metrics the traced run measured.
	rec    *recorder
	layers map[string]float64
}

func (r *run) traced() bool { return r.rec != nil }

func (r *run) interval() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}

// layer records one per-layer metric of the traced run.
func (r *run) layer(name string, v float64) {
	if _, known := perLayerUnits[name]; !known {
		panic("bench: per-layer metric " + name + " is not in the perLayer table")
	}
	r.layers[name] = v
}

func (r *run) newRow() *row {
	return &row{Workload: r.name, Seed: r.seed, Traced: r.traced(), Env: readEnvironment(r.dir)}
}

// workload is one named set of inputs. The why of each lives in
// BENCHMARK.json and README.md.
//
// driven marks the workloads BENCHMARK.json names, the ones the driver
// runs and holds to the bounds. The other three run, verify and print like
// them (and -compare judges them) but identical runs of them spread past
// any bound the driver admits - an idle core's wake-up time on a shared
// host sets serve_distinct's and serve_mixed_open's latency, a shared
// disk's fsync collect_journal's - and every workload the driver runs
// shortens the interval it can give each: README.md has the numbers.
type workload struct {
	name   string
	driven bool
	run    func(*run) (*row, error)
}

var workloads = []workload{
	{"serve_hot", true, func(r *run) (*row, error) { return runServe(r, serveHot) }},
	{"serve_distinct", false, func(r *run) (*row, error) { return runServe(r, serveDistinct) }},
	{"serve_distinct_nn", true, func(r *run) (*row, error) { return runServe(r, serveDistinctNN) }},
	{"serve_mixed_open", false, func(r *run) (*row, error) { return runServe(r, serveMixedOpen) }},
	{"collect_mem", true, func(r *run) (*row, error) { return runCollect(r, false) }},
	{"collect_journal", false, func(r *run) (*row, error) { return runCollect(r, true) }},
	{"train_ckpt", true, runTrain},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setUp builds a workload's fixture several times and reports the median
// build time, so one cold or disturbed build does not set setup_s: three
// times, and a fixture built in a fraction of a second (the collection
// workloads' 0.18 s spread 23% as a median of three) until cheap has been
// spent, nine times at most. The last build is kept, earlier ones are
// discarded. If building has already taken giveUp the repeats stop: the
// driver's time for a run is finite.
func setUp[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	const (
		builds    = 3
		maxBuilds = 9
		cheap     = 1500 * time.Millisecond
		giveUp    = 9 * time.Second
	)
	var (
		kept  T
		times []float64
		total time.Duration
	)
	for len(times) == 0 || (total < giveUp && (len(times) < builds || (len(times) < maxBuilds && total < cheap))) {
		if len(times) > 0 {
			discard(kept)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		d := time.Since(t0)
		kept, total = v, total+d
		times = append(times, d.Seconds())
	}
	sort.Float64s(times)
	return kept, quantile(times, 0.5), nil
}
