// Quickstart: the three-minute tour of the StencilMART library.
//
// It builds a stencil, rasterizes it into the paper's binary-tensor
// representation, builds a small framework, random-searches a few
// optimization combinations on a V100 through the framework's simulator,
// and finally trains the framework's models and asks them which
// optimization combination to use.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"stencilmart"
)

func main() {
	// 1. A classic stencil: the 2-D order-2 star (9-point Laplacian-like).
	s := stencilmart.Star(2, 2)
	fmt.Println("stencil:", s)

	// 2. The paper's representations: binary tensor + feature set.
	bin, err := stencilmart.AssignTensor(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary tensor: %d cells, %d non-zeros (sparsity %.3f)\n",
		len(bin.Data), bin.NNZ(), bin.Sparsity())
	fmt.Printf("feature vector: %v\n", stencilmart.Features(s))

	// 3. Build a small framework: it profiles a random corpus on every
	// GPU of the catalog through its simulator.
	cfg := stencilmart.DefaultConfig()
	cfg.Corpus2D, cfg.Corpus3D = 30, 10 // keep the demo quick
	fmt.Println("\nbuilding a small StencilMART framework (profiling a random corpus)...")
	fw, err := stencilmart.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Random-search a few optimization combinations on the V100.
	v100, err := stencilmart.GPUByName("V100")
	if err != nil {
		log.Fatal(err)
	}
	w := stencilmart.DefaultWorkload(s)
	fmt.Printf("\nsimulated times on %s (%d sweeps of %dx%d):\n", v100, w.TimeSteps, w.GridX, w.GridY)
	for _, name := range []string{"BASE", "ST", "ST_RT_PR", "ST_TB"} {
		oc, err := stencilmart.ParseOC(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := stencilmart.RandomTuner.Tune(fw.Model, w, oc, v100, 16, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s best of 16 settings: %8.3f ms\n", name, res.Time*1e3)
	}

	// 5. Train the serving models once, then ask them for the best OC.
	if err := fw.TrainAll(context.Background(), stencilmart.ClassGBDT, stencilmart.RegGB); err != nil {
		log.Fatal(err)
	}
	pred, err := fw.ServePredict("V100", s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("StencilMART predicts the best optimization combination: %s\n", pred.OC)
}
