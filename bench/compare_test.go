package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestJudge(t *testing.T) {
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"lower: within the bound", []float64{100, 101, 99}, []float64{105, 104, 106}, "lower", 0.10, verdictOK},
		{"lower: past the bound, tight runs", []float64{100, 101, 99}, []float64{115, 114, 116}, "lower", 0.10, verdictWorse},
		{"higher: a drop past the bound", []float64{1000, 1010, 990}, []float64{850, 860, 840}, "higher", 0.10, verdictWorse},
		{"higher: a rise is never worse", []float64{1000, 1010, 990}, []float64{1500, 1490, 1510}, "higher", 0.10, verdictOK},
		{"wide spread, overlapping: cannot tell", []float64{80, 100, 120, 140}, []float64{90, 115, 130, 150}, "lower", 0.10, verdictUnresolved},
		{"wide spread but every run of the change is better", []float64{100, 120, 140, 160}, []float64{50, 60, 70, 80}, "lower", 0.10, verdictOK},
		{"wide spread, no overlap, all worse", []float64{100, 120, 140, 160}, []float64{200, 230, 260, 290}, "lower", 0.10, verdictWorse},
		{"single runs: the medians decide", []float64{2.0}, []float64{2.3}, "lower", 0.10, verdictWorse},
		{"single runs within the bound", []float64{2.0}, []float64{2.1}, "lower", 0.10, verdictOK},
	}
	for _, c := range cases {
		if got, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRowsJudgesEveryPairAndWatchesFailures(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []metricDecl{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	mk := func(w string, ops, p50 float64, failed int) *row {
		return &row{Workload: w, Attempted: 100, Failed: failed, Metrics: map[string]metric{
			"ops_per_s": {ops, "1/s"}, "op_ms": {p50, "ms"},
		}}
	}
	a := []*row{mk("serve_hot", 1000, 2.0, 0), mk("collect_mem", 1800, 150, 0), mk("only_in_a", 1, 1, 0)}
	b := []*row{mk("serve_hot", 800, 2.1, 0), mk("collect_mem", 1790, 151, 1), {Workload: "serve_hot", Traced: true}}
	table, failRose := compareRows(bf, a, b)
	if len(table) != 4 {
		t.Fatalf("%d rows, want 2 workloads x 2 metrics: %+v", len(table), table)
	}
	got := map[string]string{}
	for _, c := range table {
		got[c.workload+"/"+c.metric] = c.verdict
	}
	want := map[string]string{
		"serve_hot/ops_per_s":   verdictWorse,
		"serve_hot/op_ms":       verdictOK,
		"collect_mem/ops_per_s": verdictOK,
		"collect_mem/op_ms":     verdictOK,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s, want %s", k, got[k], v)
		}
	}
	if len(failRose) != 1 || failRose[0] != "collect_mem" {
		t.Errorf("failed share rose on %v, want collect_mem", failRose)
	}
}

// BENCHMARK.json and the tables the program prints from must name the
// same metrics with the same units, and BENCHMARK.json's workloads are the
// ones the program marks as driven.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json above this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}
	var driven []string
	for _, w := range workloads {
		if w.driven {
			driven = append(driven, w.name)
		}
	}
	if len(bf.Workloads) != len(driven) {
		t.Fatalf("%d workloads declared, the program marks %d as driven", len(bf.Workloads), len(driven))
	}
	for i, w := range bf.Workloads {
		if w.Name != driven[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, driven[i])
		}
	}
	same := func(what string, decl []metricDecl, specs []metricSpec) {
		if len(decl) != len(specs) {
			t.Fatalf("%s: %d declared, %d implemented", what, len(decl), len(specs))
		}
		for i, d := range decl {
			if d.Name != specs[i].name || d.Unit != specs[i].unit {
				t.Errorf("%s %d: %s [%s] declared, %s [%s] implemented", what, i, d.Name, d.Unit, specs[i].name, specs[i].unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better is %q", what, d.Name, d.Better)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}
