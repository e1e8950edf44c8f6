package experiments

import (
	"context"
	"fmt"
	"math"

	"stencilmart/internal/gpu"
	"stencilmart/internal/merge"
	"stencilmart/internal/opt"
	"stencilmart/internal/profile"
	"stencilmart/internal/stats"
	"stencilmart/internal/stencil"
)

// representativeDataset profiles the classic motivation-study stencils
// (star/box/cross, orders 1-4, 2-D and 3-D) on every GPU.
func (r *Runner) representativeDataset() (*profile.Dataset, error) {
	p := profile.NewProfiler(r.Cfg.SamplesPerOC, r.Cfg.Seed+5000)
	return p.Collect(context.Background(), stencil.RepresentativeAll(), gpu.Catalog())
}

// Fig1 reproduces the best-vs-worst OC gap on V100 (paper: average 9.95x,
// larger gaps at higher order/dimensionality, some OCs crash).
func (r *Runner) Fig1() error {
	fmt.Fprintln(r.Out, "== Fig. 1: best OC normalized to worst OC per stencil (V100) ==")
	d, err := r.representativeDataset()
	if err != nil {
		return err
	}
	ai, err := d.ArchIndex("V100")
	if err != nil {
		return err
	}
	m := d.BestTimeMatrix(ai)
	var gaps []float64
	for si, s := range d.Stencils {
		best, worst := math.Inf(1), 0.0
		crashes := 0
		for ci := range m {
			t := m[ci][si]
			if math.IsNaN(t) {
				crashes++
				continue
			}
			if t < best {
				best = t
			}
			if t > worst {
				worst = t
			}
		}
		gap := worst / best
		gaps = append(gaps, gap)
		fmt.Fprintf(r.Out, "%-10s gap=%6.2fx  best=%8.3fms  crashedOCs=%d\n",
			s.Name, gap, best*1e3, crashes)
	}
	gm, err := stats.GeoMean(gaps)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.Out, "average gap: %.2fx (arithmetic %.2fx); paper reports 9.95x\n\n",
		gm, stats.Mean(gaps))
	return nil
}

// Fig2 reproduces the distribution of best OCs per GPU (paper: streaming
// OCs dominate; TB without ST never best; distribution relatively even).
func (r *Runner) Fig2() error {
	fmt.Fprintln(r.Out, "== Fig. 2: number of stencils each OC wins, per GPU ==")
	fw, err := r.framework()
	if err != nil {
		return err
	}
	for ai, a := range fw.Dataset.Archs {
		counts := merge.BestCounts(fw.Dataset.BestTimeMatrix(ai))
		stWins, tbNoSTWins := 0, 0
		for ci, c := range counts {
			oc := opt.Combinations()[ci]
			if oc.Has(opt.ST) {
				stWins += c
			}
			if oc.Has(opt.TB) && !oc.Has(opt.ST) {
				tbNoSTWins += c
			}
		}
		fmt.Fprintf(r.Out, "%-7s top:%s | ST-enabled wins %d/%d, TB-without-ST wins %d\n",
			a.Name, topCounts(counts, 6), stWins, len(fw.Dataset.Stencils), tbNoSTWins)
	}
	fmt.Fprintln(r.Out, "paper: ST-enabled OCs win most stencils; TB/TB_BM/TB_CM never best")
	fmt.Fprintln(r.Out)
	return nil
}

// Fig3 reproduces the top-100 pairwise-OC PCC distribution and the
// cross-architecture intersection (paper: 28% of the top pairs shared).
func (r *Runner) Fig3() error {
	fmt.Fprintln(r.Out, "== Fig. 3: top-100 pairwise-OC PCCs per GPU ==")
	fw, err := r.framework()
	if err != nil {
		return err
	}
	ms := matrices(fw.Dataset)
	for ai, a := range fw.Dataset.Archs {
		pairs := merge.TopPairs(merge.PCCMatrix(ms[ai]), 100)
		var vals []float64
		for _, p := range pairs {
			vals = append(vals, p.PCC)
		}
		line, err := quartileLine(vals)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.Out, "%-7s %s (n=%d)\n", a.Name, line, len(vals))
	}
	frac, err := merge.IntersectionFraction(ms, 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.Out, "intersection of top-100 pairs across all GPUs: %.0f%% (paper: 28%%)\n\n", frac*100)
	return nil
}

// Fig4 reproduces the cross-architecture best-performance comparison
// normalized to the 2080 Ti (paper: performance not proportional to
// compute resources; A100 not always best).
func (r *Runner) Fig4() error {
	fmt.Fprintln(r.Out, "== Fig. 4: best performance per GPU normalized to 2080Ti ==")
	d, err := r.representativeDataset()
	if err != nil {
		return err
	}
	ti, err := d.ArchIndex("2080Ti")
	if err != nil {
		return err
	}
	names := sortedArchNames()
	fmt.Fprintf(r.Out, "%-10s", "stencil")
	for _, n := range names {
		fmt.Fprintf(r.Out, "%9s", n)
	}
	fmt.Fprintln(r.Out, "   (higher = faster than 2080Ti)")
	perArchWins := map[string]int{}
	for si, s := range d.Stencils {
		ref := d.Profiles[ti][si].BestTime
		fmt.Fprintf(r.Out, "%-10s", s.Name)
		bestArch, bestVal := "", 0.0
		for ai, a := range d.Archs {
			speedup := ref / d.Profiles[ai][si].BestTime
			fmt.Fprintf(r.Out, "%9.2f", speedup)
			if speedup > bestVal {
				bestVal, bestArch = speedup, a.Name
			}
		}
		perArchWins[bestArch]++
		fmt.Fprintln(r.Out)
	}
	fmt.Fprintf(r.Out, "best-GPU counts: %v; paper: A100 not always best (e.g. box3d3r/box3d4r fastest on V100)\n\n", perArchWins)
	return nil
}
