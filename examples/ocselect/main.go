// OC selection: reproduce the end-user workflow of Sec. V-B on a real
// workload family — image-processing box filters (the paper's motivating
// application for box stencils).
//
// The example profiles the classic box/star/cross suite exhaustively on
// one GPU (ground truth), trains the serving models (GBDT classifiers,
// GB regressors) on a random corpus once, and reports where the
// predicted optimization combinations land relative to the true best and
// worst.
//
// Run with: go run ./examples/ocselect
package main

import (
	"context"
	"fmt"
	"log"

	"stencilmart"
)

const gpuName = "V100"

func main() {
	cfg := stencilmart.DefaultConfig()
	cfg.Corpus2D, cfg.Corpus3D = 40, 20
	fmt.Println("building StencilMART (random corpus, all GPUs)...")
	fw, err := stencilmart.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := fw.TrainAll(context.Background(), stencilmart.ClassGBDT, stencilmart.RegGB); err != nil {
		log.Fatal(err)
	}
	v100, err := stencilmart.GPUByName(gpuName)
	if err != nil {
		log.Fatal(err)
	}

	suite := []stencilmart.Stencil{
		stencilmart.Box(2, 1), stencilmart.Box(2, 2), stencilmart.Box(2, 4),
		stencilmart.Star(2, 3), stencilmart.Cross(2, 2),
		stencilmart.Box(3, 1), stencilmart.Star(3, 4), stencilmart.Cross(3, 2),
	}

	fmt.Printf("\n%-10s %-14s %10s %10s %10s  %s\n",
		"stencil", "predicted OC", "pred(ms)", "best(ms)", "worst(ms)", "quality")
	for _, s := range suite {
		pred, err := fw.ServePredict(gpuName, s)
		if err != nil {
			log.Fatal(err)
		}
		oc, err := stencilmart.ParseOC(pred.OC)
		if err != nil {
			log.Fatal(err)
		}
		predT, bestT, worstT := groundTruth(fw, s, oc, v100)
		quality := worstT / predT // how much of the tuning headroom we kept
		headroom := worstT / bestT
		fmt.Printf("%-10s %-14s %10.3f %10.3f %10.3f  %.1fx of %.1fx headroom\n",
			s.Name, oc, predT*1e3, bestT*1e3, worstT*1e3, quality, headroom)
	}
	fmt.Println("\nquality = worst/predicted; a perfect prediction matches the headroom column")
}

// groundTruth random-searches every OC (16 settings each) and returns
// the predicted OC's best time plus the global best and worst.
func groundTruth(fw *stencilmart.Framework, s stencilmart.Stencil, predicted stencilmart.Opt, arch stencilmart.Arch) (pred, best, worst float64) {
	w := stencilmart.DefaultWorkload(s)
	best, worst = -1, -1
	for _, oc := range stencilmart.Combinations() {
		res, err := stencilmart.RandomTuner.Tune(fw.Model, w, oc, arch, 16, 11)
		if err != nil {
			continue // OC crashes for this stencil
		}
		if best < 0 || res.Time < best {
			best = res.Time
		}
		if res.Time > worst {
			worst = res.Time
		}
		if oc == predicted {
			pred = res.Time
		}
	}
	return pred, best, worst
}
