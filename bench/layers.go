package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// perLayer is every per-layer metric a traced run prints. A traced run of
// one workload measures the layers that workload reaches and prints zero
// for the rest: "ml/tree does nothing on serve_distinct_nn" is then a row
// of zeros, not a missing row. README.md has the table of which
// end-to-end metric each one should move, on which workload.
//
// Layers are timed from outside, by calling their exported functions; the
// names are the ones spans inside the program (ROADMAP item 1) must
// reproduce.
var perLayer = []metricSpec{
	// serve: HTTP and JSON around the scoring lane.
	{"serve.socket_b1_us", "us"},
	{"serve.handler_b1_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.resp_bytes", "B"},
	{"serve.shed", "count"},
	{"serve.deadline_expired", "count"},
	{"serve.degraded", "count"},
	// serve/batch: the coalescing window.
	{"batch.lone_wait_us", "us"},
	{"batch.pair_wait_us", "us"},
	{"batch.handoff_us", "us"},
	{"batch.avg_size", "count"},
	{"batch.max_size", "count"},
	{"batch.window_flush_share", "share"},
	// serve/registry.
	{"registry.acquire_ns", "ns"},
	{"registry.publish_ms", "ms"},
	// core: the predict pipeline called directly, per request.
	{"core.tree.f64.b1_hot_us", "us"},
	{"core.tree.f64.b1_distinct_us", "us"},
	{"core.tree.f64.b32_distinct_us", "us"},
	{"core.tree.f32.b1_hot_us", "us"},
	{"core.tree.f32.b1_distinct_us", "us"},
	{"core.tree.f32.b32_distinct_us", "us"},
	{"core.nn.f64.b1_hot_us", "us"},
	{"core.nn.f64.b1_distinct_us", "us"},
	{"core.nn.f64.b32_distinct_us", "us"},
	{"core.nn.f32.b1_hot_us", "us"},
	{"core.nn.f32.b1_distinct_us", "us"},
	{"core.nn.f32.b32_distinct_us", "us"},
	{"core.tree.classify_us", "us"},
	{"core.tree.regress_us", "us"},
	{"core.nn.classify_us", "us"},
	{"core.nn.regress_us", "us"},
	{"core.assemble_us", "us"},
	{"core.allocs_per_req.f64", "count"},
	{"core.allocs_per_req.f32", "count"},
	// tuner and sim.
	{"tuner.tune_cold_us", "us"},
	{"tuner.tune_warm_us", "us"},
	{"sim.compile_us", "us"},
	{"sim.eval_cold_ns", "ns"},
	{"sim.eval_warm_ns", "ns"},
	{"sim.cache_hit_rate", "share"},
	{"sim.evictions", "count"},
	// ml/tree, ml/nn, linalg: model inference per row, and fits.
	{"tree.gbdt_row_ns.f64", "ns"},
	{"tree.gbdt_row_ns.f32", "ns"},
	{"tree.gbreg_row_ns.f64", "ns"},
	{"nn.convnet2d_row_us.f64", "us"},
	{"nn.convnet2d_row_us.f32", "us"},
	{"nn.convnet3d_row_us.f64", "us"},
	{"nn.convnet3d_row_us.f32", "us"},
	{"nn.convmlp_row_us.f64", "us"},
	{"linalg.gemm_gflops.f64", "GFLOP/s"},
	{"linalg.gemm_gflops.f32", "GFLOP/s"},
	{"tree.gbdt_fit_ms", "ms"},
	{"tree.gbreg_fit_ms", "ms"},
	// gen, opt, profile: collection.
	{"gen.stencil_us", "us"},
	{"opt.sample_ns", "ns"},
	{"profile.cell_us", "us"},
	{"profile.allocs_per_cell", "count"},
	{"profile.kb_per_cell", "kB"},
	{"profile.instances_per_cell", "count"},
	{"profile.serial_cells_per_s", "1/s"},
	{"profile.scaling_x", "x"},
	// persist and campaign: the journal and the checkpoint.
	{"persist.wal_append_us", "us"},
	{"persist.wal_fsync_us", "us"},
	{"persist.wal_bytes_per_cell", "B"},
	{"persist.wal_replay_mb_per_s", "MB/s"},
	{"profile.merge_journals_s", "s"},
	{"campaign.cells_per_s", "1/s"},
	{"campaign.overhead_x", "x"},
	{"persist.ckpt_write_mb_per_s", "MB/s"},
	{"persist.ckpt_read_mb_per_s", "MB/s"},
	{"journal.collect_s", "s"},
	{"journal.resume_s", "s"},
	// merge and the training split of train_ckpt.
	{"train.collect_s", "s"},
	{"train.merge_s", "s"},
	{"train.trainall_s", "s"},
	{"train.save_s", "s"},
	{"train.load_s", "s"},
	{"train.compile_f32_ms", "ms"},
	{"ckpt.mb", "MB"},
	{"quality.acc_top1", "share"},
	{"quality.mape_pct", "%"},
	// the process and the load generator.
	{"proc.peak_rss_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_total_ms", "ms"},
	{"loadgen.p95_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.p999_ms", "ms"},
	{"loadgen.max_late_ms", "ms"},
	{"loadgen.slo_miss_share", "share"},
	{"loadgen.slo_rate_rps", "1/s"},
	{"trace.overhead_share", "share"},
}

var perLayerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = s.unit
	}
	return m
}()

// probeBudget is how long one layer probe samples. A traced run makes a
// few dozen of them.
const probeBudget = 80 * time.Millisecond

// probe calls fn over and over for about probeBudget (at most limit
// calls, at least three) and returns the median time of one call in
// nanoseconds. fn gets the call number, to pick an input it has not seen.
func probe(limit int, fn func(i int)) float64 {
	return probeBatched(limit, 1, fn)
}

// probeBatched is probe for calls too short to time singly: each sample
// is batch consecutive calls, divided by batch.
func probeBatched(limit, batch int, fn func(i int)) float64 {
	var samples []float64
	begin := time.Now()
	for i := 0; i+batch <= limit && (len(samples) < 3 || time.Since(begin) < probeBudget); i += batch {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn(i + j)
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	sort.Float64s(samples)
	return quantile(samples, 0.5)
}

// mallocsDuring is the number of heap allocations and bytes fn made, on
// every goroutine: run it while nothing else is.
func mallocsDuring(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// procLayers records the process-wide numbers at the end of a traced run.
func procLayers(r *run) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.layer("proc.gc_cycles", float64(ms.NumGC))
	r.layer("proc.gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6)
	r.layer("proc.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads the high-water resident set from /proc (0 elsewhere).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}
