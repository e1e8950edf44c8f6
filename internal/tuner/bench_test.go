package tuner

import (
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

// BenchmarkTuners measures the cost of one 48-evaluation run of the
// paper's random search.
func BenchmarkTuners(b *testing.B) {
	m := sim.New()
	w := sim.DefaultWorkload(stencil.Box(3, 2))
	arch, err := gpu.ByName("V100")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (Random{}).Tune(m, w, opt.ST|opt.TB, arch, 48, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
