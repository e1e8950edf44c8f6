package core

import (
	"math"
	"testing"

	"stencilmart/internal/baseline"
)

// speedupGolden is Figs. 10 and 11's GBDT rows on the smoke preset:
// SpeedupVsBaseline's bits per (baseline, dims, GPU), recorded before the
// baselines and the predicted search shared tuner.Search.
var speedupGolden = []struct {
	strat string
	dims  int
	gpu   string
	bits  uint64
}{
	{"Artemis", 2, "P100", 0x3ff2d5c13b02cb09},   // 1.1772
	{"Artemis", 2, "V100", 0x3ff1fe9bc2e640e6},   // 1.1247
	{"Artemis", 2, "2080Ti", 0x3feee64599309a5b}, // 0.9656
	{"Artemis", 2, "A100", 0x3ff3ed9420fdddc6},   // 1.2455
	{"Artemis", 3, "P100", 0x3feeb7f5b874e10b},   // 0.9600
	{"Artemis", 3, "V100", 0x3ff301c3857a76ba},   // 1.1879
	{"Artemis", 3, "2080Ti", 0x3feee480200fc9b1}, // 0.9654
	{"Artemis", 3, "A100", 0x3ff16e0b63e00c57},   // 1.0894
	{"AN5D", 2, "P100", 0x3ff32298008615a3},      // 1.1959
	{"AN5D", 2, "V100", 0x3ff27eaba5fd0fd3},      // 1.1559
	{"AN5D", 2, "2080Ti", 0x3ff14d19278cb377},    // 1.0813
	{"AN5D", 2, "A100", 0x3ff0bc79fe2c99f4},      // 1.0460
	{"AN5D", 3, "P100", 0x3ff3478cf89ff171},      // 1.2050
	{"AN5D", 3, "V100", 0x3ff6e3a5c82b50ac},      // 1.4306
	{"AN5D", 3, "2080Ti", 0x3ff7fad06d709740},    // 1.4987
	{"AN5D", 3, "A100", 0x3ff1a50daf6a3bdb},      // 1.1028
}

// TestSpeedupVsBaselineGolden pins Figs. 10 and 11 (GBDT, smoke preset)
// bit for bit: the baselines' searches, the predicted search and the
// fold training all feed these numbers.
func TestSpeedupVsBaselineGolden(t *testing.T) {
	fw := ckptFramework(t)
	strats := map[string]baseline.Strategy{"Artemis": baseline.Artemis{}, "AN5D": baseline.AN5D{}}
	for _, g := range speedupGolden {
		sp, err := fw.SpeedupVsBaseline(ClassGBDT, g.gpu, g.dims, strats[g.strat])
		if err != nil {
			t.Fatalf("%s %d-D %s: %v", g.strat, g.dims, g.gpu, err)
		}
		if got := math.Float64bits(sp); got != g.bits {
			t.Errorf("%s %d-D %s: speedup %.4f (bits %#x), golden %.4f (bits %#x)",
				g.strat, g.dims, g.gpu, sp, got, math.Float64frombits(g.bits), g.bits)
		}
	}
}
