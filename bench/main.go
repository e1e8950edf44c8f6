// Command bench is the repository's benchmark: seven workloads over the
// whole pipeline (serve, collect, train-to-checkpoint), three gated
// end-to-end metrics per workload, and a separate traced run that times
// every layer from outside. See README.md in this directory.
//
//	go run ./bench                                  all workloads, gated
//	go run ./bench -trace 1                         all workloads, traced
//	go run ./bench -workload serve_hot -seed 7      one workload
//	go run ./bench -compare a.json b.json           verdicts between two result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() { os.Exit(realMain()) }

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload only (default: all seven)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured interval")
	trace := fs.Int("trace", 0, "1 runs the traced variant: spans, layer probes, per-layer metrics")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for results, traces and scratch files")
	repeat := fs.Int("repeat", 1, "with all workloads: run each this many times, on seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare two result files given as arguments, using BENCHMARK.json's bounds")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args())
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be positive, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	// One process, every core, and (in the load generators) never more
	// callers than cores.
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	scratch := filepath.Join(*outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	var rows []*row
	status := 0
	for _, w := range selected {
		for rep := 0; rep < *repeat; rep++ {
			r := &run{ctx: ctx, name: w.name, seed: *seed + int64(rep), seconds: *seconds, dir: scratch}
			if *trace == 1 {
				r.rec, r.layers = newRecorder(), map[string]float64{}
			}
			row, err := w.run(r)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if r.traced() {
				finishTraced(r, row, *outDir)
			}
			rows = append(rows, row)
			printRow(row)
			if row.Failed > 0 {
				status = 1
			}
		}
	}
	// Every run leaves its rows in the out directory, in the shape
	// BASELINE.json has and -compare reads.
	file := "results"
	if *name != "" {
		file += "-" + *name
	}
	if *trace == 1 {
		file += "-trace"
	}
	path := filepath.Join(*outDir, file+".json")
	if err := writeResults(path, rows); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *name == "" {
		fmt.Println("results written to", path)
		return status
	}
	// One workload: the last line is the machine-readable result, and the
	// exit status says a result was printed, not that it is good news.
	fmt.Println(resultLine(rows[len(rows)-1]))
	return 0
}

// unreached names, per workload, the layers its traced run must show no
// work in: the "predicted no change" half of the layer table. The harness
// makes every span and probe itself, so today this guards the harness
// (nobody wires a tree probe into the nn workload); once spans come from
// inside the program the same check guards the program.
var unreached = map[string][]string{
	"collect_mem":       {"persist.", "journal.", "campaign.", "profile.CollectJournal"},
	"serve_distinct_nn": {"tree.", "core.tree."},
	"serve_hot":         {"nn.", "core.nn.", "linalg."},
	"serve_distinct":    {"nn.", "core.nn.", "linalg."},
}

// finishTraced writes the span file and turns the collected layer values
// into the row's metrics: every per-layer name, zero where this
// workload's traced run does not reach the layer.
func finishTraced(r *run, row *row, outDir string) {
	procLayers(r)
	spans := r.rec.snapshot()
	path := filepath.Join(outDir, "trace-"+r.name+".json")
	if err := writeTrace(path, traceFile{Workload: r.name, Seed: r.seed, Self: selfTimes(spans), Spans: spans}); err != nil {
		row.fail("writing %s: %v", path, err)
	}
	row.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		row.Metrics[m.name] = metric{Value: r.layers[m.name], Unit: m.unit}
	}
	for _, prefix := range unreached[r.name] {
		var touched []string
		for name, v := range r.layers {
			if strings.HasPrefix(name, prefix) && v != 0 {
				touched = append(touched, name)
			}
		}
		for _, s := range spans {
			if strings.HasPrefix(s.Name, prefix) {
				touched = append(touched, "span "+s.Name)
			}
		}
		row.check(len(touched) == 0, "%s must not reach layer %s*, but measured %v", r.name, prefix, touched)
	}
}

// results is the shape of a results file and of BASELINE.json.
type results struct {
	Rows []*row `json:"rows"`
}

func writeResults(path string, rows []*row) error {
	data, err := json.MarshalIndent(results{Rows: rows}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the one-line result a single-workload run ends with.
func resultLine(r *row) string {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // floats and strings only; a NaN here is a harness bug
	}
	return string(data)
}

// printRow prints every metric by name with its unit.
func printRow(r *row) {
	kind := "gated"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("%s (%s)  seed %d  measured %.2f s  attempted %d  succeeded %d  failed %d\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Attempted, r.Succeeded, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if r.Traced && m.Value == 0 {
			continue // a layer this workload does not reach
		}
		fmt.Printf("  %-34s %14.6g %-6s\n", n, m.Value, m.Unit)
	}
	reported := make([]string, 0, len(r.Reported))
	for n := range r.Reported {
		reported = append(reported, n)
	}
	sort.Strings(reported)
	for _, n := range reported {
		note := ""
		if d := r.Latency; d != nil && n == "op_tail_ms" {
			note = fmt.Sprintf("   %s, %d operations", pctName(d.TailPct), d.N)
		}
		fmt.Printf("  (reported) %-23s %14.6g%s\n", n, r.Reported[n], note)
	}
	for n, d := range r.Digests {
		fmt.Printf("  (digest) %s %s\n", n, d)
	}
	for _, f := range r.Flags {
		fmt.Println("  flag:", f)
	}
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}
