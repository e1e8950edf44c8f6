package core

import (
	"fmt"
	"math"
	"math/rand"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
)

// RentReport is the outcome of the "to rent or not to rent" case study
// (Sec. V-D): per GPU, the fraction of stencil instances it truly wins and
// the prediction accuracy among those instances, for pure performance
// (Fig. 14) or cost efficiency (Fig. 15).
type RentReport struct {
	// Dims is the stencil dimensionality studied.
	Dims int
	// CostBased selects time x rental price as the metric; otherwise pure
	// execution time.
	CostBased bool
	// ArchNames lists the GPUs compared (rentable subset when CostBased).
	ArchNames []string
	// Share is the ground-truth winning fraction per GPU.
	Share []float64
	// Accuracy is the winner-prediction accuracy among the instances each
	// GPU truly wins; NaN when that GPU wins nothing.
	Accuracy []float64
	// Overall is the overall winner-prediction accuracy.
	Overall float64
	// Instances is the evaluation-set size.
	Instances int
}

// RentStudy trains a cross-architecture regressor on the training
// stencils' instances, then — for held-out stencils — samples fresh
// (OC, parameter) instances, measures them on every candidate GPU for
// ground truth, and checks whether the regressor picks the same winner.
func (f *Framework) RentStudy(kind RegressorKind, dims int, costBased bool, evalPerStencil int) (RentReport, error) {
	if evalPerStencil < 1 {
		return RentReport{}, fmt.Errorf("core: evalPerStencil %d < 1", evalPerStencil)
	}
	var archs []gpu.Arch
	if costBased {
		for _, a := range f.Dataset.Archs {
			if a.HasRental() {
				archs = append(archs, a)
			}
		}
	} else {
		archs = f.Dataset.Archs
	}
	if len(archs) < 2 {
		return RentReport{}, fmt.Errorf("core: need >= 2 candidate GPUs, have %d", len(archs))
	}

	folds, _, err := f.stencilFolds(dims)
	if err != nil {
		return RentReport{}, err
	}
	testSet := map[int]bool{}
	for _, si := range folds[0] {
		testSet[si] = true
	}

	// Train on the instances of the training stencils only.
	var train []profile.Instance
	for _, in := range f.dimsInstances(dims) {
		if !testSet[in.StencilIdx] {
			train = append(train, in)
		}
	}
	tr, err := f.TrainRegressor(kind, dims, train, f.Cfg.Seed+23)
	if err != nil {
		return RentReport{}, err
	}

	report := RentReport{Dims: dims, CostBased: costBased}
	for _, a := range archs {
		report.ArchNames = append(report.ArchNames, a.Name)
	}
	wins := make([]int, len(archs))
	hits := make([]int, len(archs))
	combos := opt.Combinations()
	rng := rand.New(rand.NewSource(f.Cfg.Seed + 29))
	// winner is the index into archs of the GPU /predict's advice picks
	// from the candidates' index-aligned seconds: the fastest, or the
	// cheapest when cost-based.
	winner := func(cands []gpu.Arch, seconds []float64) int {
		adv := rentAdvice("", cands, seconds)
		name := adv.BestArch
		if costBased {
			name = adv.BestCostArch
		}
		for ai, a := range archs {
			if a.Name == name {
				return ai
			}
		}
		return -1
	}

	// Iterate the held-out fold in its stored order (not map order) so the
	// rng consumption — and thus the whole study — is deterministic.
	for _, si := range folds[0] {
		s := f.Dataset.Stencils[si]
		w := sim.DefaultWorkload(s)
		// One compiled evaluator per competing GPU, resolved once per
		// stencil instead of once per (evaluation, GPU).
		evals := make([]sim.EvalFn, len(archs))
		for ai, a := range archs {
			evals[ai] = f.Model.CellFn(w, a)
		}
		for e := 0; e < evalPerStencil; e++ {
			oc := combos[rng.Intn(len(combos))]
			params := opt.Sample(oc, s.Dims, rng)
			// Measure ground truth on every GPU first; only the GPUs whose
			// simulation succeeds compete.
			cands := make([]gpu.Arch, 0, len(archs))
			times := make([]float64, 0, len(archs))
			for ai, a := range archs {
				r, err := evals[ai](oc, params)
				if err != nil {
					continue
				}
				cands = append(cands, a)
				times = append(times, r.Time)
			}
			// One batched forward ranks all surviving GPUs.
			ins := make([]profile.Instance, len(cands))
			for i, a := range cands {
				ins[i] = profile.Instance{
					StencilIdx: si, OC: oc, Params: params, Arch: a.Name,
				}
			}
			preds, err := tr.PredictSecondsBatch(ins)
			if err != nil {
				return RentReport{}, err
			}
			if len(cands) < 2 {
				continue // not a meaningful comparison
			}
			truthBest, predBest := winner(cands, times), winner(cands, preds)
			report.Instances++
			wins[truthBest]++
			if predBest == truthBest {
				hits[truthBest]++
			}
		}
	}
	if report.Instances == 0 {
		return RentReport{}, fmt.Errorf("core: rent study produced no comparable instances")
	}
	total := 0
	for ai := range archs {
		report.Share = append(report.Share, float64(wins[ai])/float64(report.Instances))
		if wins[ai] > 0 {
			report.Accuracy = append(report.Accuracy, float64(hits[ai])/float64(wins[ai]))
		} else {
			report.Accuracy = append(report.Accuracy, math.NaN())
		}
		total += hits[ai]
	}
	report.Overall = float64(total) / float64(report.Instances)
	return report, nil
}
