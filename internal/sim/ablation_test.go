package sim_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"stencilmart"
	"stencilmart/internal/gen"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
)

// benchOut is where the ablation prints its rows.
func benchOut() io.Writer { return os.Stdout }

// BenchmarkAblationNoiseSweep sweeps the simulator's stencil-arch
// affinity noise and reports how the Fig. 14 winner distribution entropy
// reacts (design decision 5).
func BenchmarkAblationNoiseSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sigma := range []float64{0, 0.1, 0.2, 0.4} {
			noise := sim.DefaultNoise()
			noise.StencilArch = sigma
			m := sim.NewWithNoise(noise)
			corpus, err := gen.MixedCorpus(30, 0, 4, 3)
			if err != nil {
				b.Fatal(err)
			}
			wins := map[string]int{}
			rng := rand.New(rand.NewSource(4))
			combos := opt.Combinations()
			for _, s := range corpus {
				w := sim.DefaultWorkload(s)
				oc := combos[rng.Intn(len(combos))]
				p := opt.Sample(oc, s.Dims, rng)
				bestName, bestT := "", 0.0
				for _, a := range stencilmart.GPUCatalog() {
					r, err := m.CellFn(w, a)(oc, p)
					if err != nil {
						continue
					}
					if bestName == "" || r.Time < bestT {
						bestName, bestT = a.Name, r.Time
					}
				}
				wins[bestName]++
			}
			fmt.Fprintf(benchOut(), "ablation noise sigma=%.2f: winner counts %v\n", sigma, wins)
		}
	}
}
