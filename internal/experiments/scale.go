package experiments

import (
	"context"
	"fmt"

	"stencilmart/internal/core"
)

// scaleFractions are the corpus-size steps of the scale study.
var scaleFractions = []float64{0.5, 0.75, 1.0}

// Scale records how prediction quality grows with profiled corpus size:
// profiling is the expensive step, so the curve says what a larger
// corpus buys. Each step re-profiles a scaled corpus from
// the same seed and reports GBDT OC-selection accuracy (averaged over
// the catalog) and GBRegressor performance-prediction MAPE. Unlike the
// figure experiments, it is excluded from "all": it profiles several
// corpora end to end.
func (r *Runner) Scale() error {
	fmt.Fprintln(r.Out, "== Scale: prediction quality vs profiled corpus size ==")
	for _, f := range scaleFractions {
		cfg := r.Cfg
		// Cross-validated accuracy needs at least 5 stencils per
		// dimensionality (one per fold), so the smallest step clamps.
		cfg.Corpus2D = max(5, int(float64(r.Cfg.Corpus2D)*f))
		cfg.Corpus3D = max(5, int(float64(r.Cfg.Corpus3D)*f))
		fw, err := core.Build(context.Background(), cfg)
		if err != nil {
			return fmt.Errorf("scale %.0f%%: %w", f*100, err)
		}
		fmt.Fprintf(r.Out, "%3.0f%% corpus (%d stencils, %d instances):",
			f*100, len(fw.Dataset.Stencils), len(fw.Dataset.Instances))
		for _, dims := range []int{2, 3} {
			var sum float64
			names := sortedArchNames()
			for _, name := range names {
				acc, err := fw.ClassifierAccuracy(core.ClassGBDT, name, dims)
				if err != nil {
					return fmt.Errorf("scale %.0f%%: accuracy %dD %s: %w", f*100, dims, name, err)
				}
				sum += acc
			}
			fmt.Fprintf(r.Out, "  acc%dD=%.1f%%", dims, sum/float64(len(names))*100)
		}
		for _, dims := range []int{2, 3} {
			_, overall, err := fw.RegressorMAPE(core.RegGB, dims)
			if err != nil {
				return fmt.Errorf("scale %.0f%%: MAPE %dD: %w", f*100, dims, err)
			}
			fmt.Fprintf(r.Out, "  mape%dD=%.1f%%", dims, overall*100)
		}
		fmt.Fprintln(r.Out)
	}
	fmt.Fprintln(r.Out)
	return nil
}
