// Quickstart: the three-minute tour of the StencilMART library.
//
// It builds a stencil, runs it on the reference CPU executor, rasterizes
// it into the paper's binary-tensor representation, builds a small
// framework, random-searches a few optimization combinations on a V100
// through the framework's simulator, and finally asks the framework
// which optimization combination to use.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"stencilmart"
)

func main() {
	// 1. A classic stencil: the 2-D order-2 star (9-point Laplacian-like).
	s := stencilmart.Star(2, 2)
	fmt.Println("stencil:", s)

	// 2. Reference CPU execution: smooth a small grid for 4 time steps.
	in := stencilmart.NewGrid(64, 64, 1)
	in.Set(32, 32, 0, 1000) // a heat spike in the middle
	out, err := stencilmart.ApplySteps(s, stencilmart.UniformCoefficients(s), in, 4, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 4 smoothing sweeps the spike diffused to %.3f at the center\n",
		out.At(32, 32, 0))

	// 3. The paper's representations: binary tensor + feature set.
	bin, err := stencilmart.AssignTensor(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary tensor: %d cells, %d non-zeros (sparsity %.3f)\n",
		len(bin.Data), bin.NNZ(), bin.Sparsity())
	fmt.Printf("feature vector: %v\n", stencilmart.Features(s))

	// 4. Build a small framework: it profiles a random corpus on every
	// GPU of the catalog through its simulator.
	cfg := stencilmart.DefaultConfig()
	cfg.Corpus2D, cfg.Corpus3D = 30, 10 // keep the demo quick
	fmt.Println("\nbuilding a small StencilMART framework (profiling a random corpus)...")
	fw, err := stencilmart.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Random-search a few optimization combinations on the V100.
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

	// 6. Ask the framework for the best OC.
	oc, err := fw.PredictBestOCForStencil(stencilmart.ClassGBDT, "V100", s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("StencilMART predicts the best optimization combination: %s\n", oc)
}
