package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// benchmarkFile is what the harness reads of BENCHMARK.json, the contract
// the driver runs by: the bounds -compare applies, and the names a test
// holds the program's own tables to.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one metric on one workload: a is the parent,
// b the change. worsening is how far b's median is on the wrong side of
// a's, as a share of a's. The verdict is worse when that exceeds bound -
// unless the runs' own spread (the wider interquartile range, as a share
// of a's median) also exceeds bound and the two sets of runs overlap, in
// which case the data cannot tell: unresolved. The same spread test turns
// an apparent ok into unresolved, except when every run of b beats every
// run of a.
func judge(a, b []float64, better string, bound float64) (verdict string, worsening float64) {
	sa, sb := summarize(a), summarize(b)
	sign := 1.0 // lower is better: growing is worsening
	if better == "higher" {
		sign = -1
	}
	worsening = sign * (sb.Median - sa.Median) / sa.Median
	spread := max(sa.Q3-sa.Q1, sb.Q3-sb.Q1) / sa.Median
	loA, hiA := slices.Min(a), slices.Max(a)
	loB, hiB := slices.Min(b), slices.Max(b)
	overlap := loA <= hiB && loB <= hiA
	allBetter := (sign > 0 && hiB < loA) || (sign < 0 && loB > hiA)
	unsure := spread > bound && overlap && !allBetter
	switch {
	case unsure:
		return verdictUnresolved, worsening
	case worsening > bound:
		return verdictWorse, worsening
	default:
		return verdictOK, worsening
	}
}

// compareRow is one line of -compare's table.
type compareRow struct {
	workload, metric string
	a, b             summary
	worsening, bound float64
	verdict          string
}

// compareRows judges every workload x end-to-end metric present in both
// sides, and reports whether any workload's failed share rose.
func compareRows(bf benchmarkFile, a, b []*row) (table []compareRow, failRose []string) {
	group := func(rows []*row) map[string][]*row {
		m := map[string][]*row{}
		for _, r := range rows {
			if !r.Traced {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	ga, gb := group(a), group(b)
	names := make([]string, 0, len(ga))
	for w := range ga {
		if len(gb[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	values := func(rows []*row, metric string) []float64 {
		var out []float64
		for _, r := range rows {
			out = append(out, r.Metrics[metric].Value)
		}
		return out
	}
	failShare := func(rows []*row) float64 {
		failed, attempted := 0, 0
		for _, r := range rows {
			failed += r.Failed
			attempted += r.Attempted
		}
		return float64(failed) / float64(max(attempted, 1))
	}
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			va, vb := values(ga[w], m.Name), values(gb[w], m.Name)
			verdict, worsening := judge(va, vb, m.Better, m.Bound)
			table = append(table, compareRow{w, m.Name, summarize(va), summarize(vb), worsening, m.Bound, verdict})
		}
		if failShare(gb[w]) > failShare(ga[w]) {
			failRose = append(failRose, w)
		}
	}
	return table, failRose
}

// compareFiles is `bench -compare a.json b.json`: a is the parent's
// results file, b the change's. The exit status is 1 on any worse
// verdict or any rise in a workload's failed share.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two result files: the parent's, then the change's")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	var sides [2]results
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sides[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	table, failRose := compareRows(bf, sides[0].Rows, sides[1].Rows)
	if len(table) == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two files share no gated workload")
		return 2
	}
	fmt.Printf("%-18s %-11s %13s %13s %9s %7s  %s\n", "workload", "metric", "parent median", "change median", "worsening", "bound", "verdict")
	status := 0
	for _, c := range table {
		fmt.Printf("%-18s %-11s %13.6g %13.6g %+8.1f%% %6.0f%%  %s (n=%d,%d)\n",
			c.workload, c.metric, c.a.Median, c.b.Median, 100*c.worsening, 100*c.bound, c.verdict, c.a.N, c.b.N)
		if c.verdict == verdictWorse {
			status = 1
		}
	}
	for _, w := range failRose {
		fmt.Printf("%-18s failed operations rose\n", w)
		status = 1
	}
	return status
}
