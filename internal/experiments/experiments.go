// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. III motivation and Sec. V results) against the
// simulation substrate, printing the same rows/series the paper reports.
// Each experiment is addressable by the paper's artifact id ("table1",
// "fig9", ...); see DESIGN.md section 4 for the full index.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"stencilmart/internal/core"
	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/profile"
	"stencilmart/internal/stats"
	"stencilmart/internal/stencil"
	"stencilmart/internal/tensor"
)

// Runner executes paper experiments against a built framework. Building
// the framework (profiling the random corpus) happens lazily on first use
// so cheap experiments (table1-3, fig1, fig4) stay cheap.
type Runner struct {
	Cfg core.Config
	Out io.Writer

	fw *core.Framework
}

// New returns a runner writing to out.
func New(cfg core.Config, out io.Writer) *Runner {
	return &Runner{Cfg: cfg, Out: out}
}

// framework builds (once) the profiled corpus + grouping.
func (r *Runner) framework() (*core.Framework, error) {
	if r.fw == nil {
		fw, err := core.Build(context.Background(), r.Cfg)
		if err != nil {
			return nil, err
		}
		r.fw = fw
	}
	return r.fw, nil
}

// IDs lists every experiment id in paper order. The extra "scale" study
// (prediction quality vs corpus size) is addressable by id but excluded
// here — and so from RunAll — because it re-profiles several corpora.
var IDs = []string{
	"table1", "table2", "table3",
	"fig1", "fig2", "fig3", "fig4",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) error {
	switch id {
	case "table1":
		return r.Table1()
	case "table2":
		return r.Table2()
	case "table3":
		return r.Table3()
	case "fig1":
		return r.Fig1()
	case "fig2":
		return r.Fig2()
	case "fig3":
		return r.Fig3()
	case "fig4":
		return r.Fig4()
	case "fig9":
		return r.Fig9()
	case "fig10":
		return r.Fig10()
	case "fig11":
		return r.Fig11()
	case "fig12":
		return r.Fig12()
	case "fig13":
		return r.Fig13()
	case "fig14":
		return r.Fig14()
	case "fig15":
		return r.Fig15()
	case "scale":
		return r.Scale()
	default:
		return fmt.Errorf("experiments: unknown id %q (known: %v, scale)", id, IDs)
	}
}

// RunAll executes every experiment in paper order.
func (r *Runner) RunAll() error {
	for _, id := range IDs {
		if err := r.Run(id); err != nil {
			return fmt.Errorf("experiments: %s: %w", id, err)
		}
	}
	return nil
}

// Table1 prints the optimization constraint table.
func (r *Runner) Table1() error {
	fmt.Fprintln(r.Out, "== Table I: optimizations of stencil computation on GPUs ==")
	rows := []struct {
		name, abbr, constraint string
	}{
		{"Streaming", "ST", "-"},
		{"Block Merging", "BM", "Not valid when CM enabled."},
		{"Cyclic Merging", "CM", "Not valid when BM enabled."},
		{"Retiming", "RT", "Only valid when ST enabled."},
		{"Prefetching", "PR", "Only valid when ST enabled."},
		{"Temporal Blocking", "TB", "-"},
	}
	for i, row := range rows {
		fmt.Fprintf(r.Out, "%d  %-18s %-4s %s\n", i+1, row.name, row.abbr, row.constraint)
	}
	fmt.Fprintf(r.Out, "valid optimization combinations: %d\n\n", len(opt.Combinations()))
	return nil
}

// Table2 prints the candidate feature set for an example stencil.
func (r *Runner) Table2() error {
	fmt.Fprintln(r.Out, "== Table II: candidate feature set (example: star2d2r) ==")
	s := stencil.Star(2, 2)
	f := tensor.Features(s)
	for i, name := range tensor.FeatureNames {
		fmt.Fprintf(r.Out, "%-18s %.4f\n", name, f[i])
	}
	fmt.Fprintln(r.Out)
	return nil
}

// Table3 prints the GPU catalog.
func (r *Runner) Table3() error {
	fmt.Fprintln(r.Out, "== Table III: the GPUs used for evaluation ==")
	fmt.Fprintf(r.Out, "%-8s %-8s %6s %10s %5s %7s %9s\n",
		"GPU", "Gen", "Mem", "MemBW", "SMs", "TFLOPS", "Rental")
	for _, a := range gpu.Catalog() {
		rental := "-"
		if a.HasRental() {
			rental = fmt.Sprintf("$%.2f/hr", a.RentalPerHour)
		}
		fmt.Fprintf(r.Out, "%-8s %-8s %4.0fGB %7.0fGB/s %5d %7.2f %9s\n",
			a.Name, a.Generation, a.MemGB, a.MemBWGBs, a.SMs, a.TFLOPS, rental)
	}
	fmt.Fprintln(r.Out)
	return nil
}

// sortedArchNames returns catalog names in Table III order.
func sortedArchNames() []string {
	var out []string
	for _, a := range gpu.Catalog() {
		out = append(out, a.Name)
	}
	return out
}

// ocName formats an OC index.
func ocName(idx int) string { return opt.Combinations()[idx].String() }

// topCounts renders the highest best-OC counts for Fig. 2.
func topCounts(counts []int, k int) string {
	type pair struct {
		idx, n int
	}
	var ps []pair
	for i, n := range counts {
		if n > 0 {
			ps = append(ps, pair{i, n})
		}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].n > ps[b].n })
	if k > len(ps) {
		k = len(ps)
	}
	out := ""
	for _, p := range ps[:k] {
		out += fmt.Sprintf(" %s=%d", ocName(p.idx), p.n)
	}
	return out
}

// quartileLine renders the Fig. 3 value distribution summary.
func quartileLine(vals []float64) (string, error) {
	qs, err := stats.Quantiles(vals, 0, 0.25, 0.5, 0.75, 1)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f", qs[0], qs[1], qs[2], qs[3], qs[4]), nil
}

// matrices collects per-arch best-time matrices of a dataset.
func matrices(d *profile.Dataset) [][][]float64 {
	out := make([][][]float64, len(d.Archs))
	for ai := range d.Archs {
		out[ai] = d.BestTimeMatrix(ai)
	}
	return out
}
