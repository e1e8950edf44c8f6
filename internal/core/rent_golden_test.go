package core

import (
	"math"
	"testing"
)

// rentGolden is Figs. 14 and 15's GBRegressor rows on the smoke preset
// (RentStudy with Fig. 14/15's 12 evaluations per held-out stencil):
// Instances and the bits of every Share, Accuracy (NaN included) and
// Overall per (dims, metric), recorded before RentStudy picked its
// winners through rentAdvice.
var rentGolden = []struct {
	dims      int
	costBased bool
	instances int
	share     []uint64
	accuracy  []uint64
	overall   uint64
}{
	// 2-D, pure performance: P100 V100 2080Ti A100.
	{2, false, 35,
		[]uint64{0x0000000000000000, 0x3fc2492492492492, 0x3fdb6db6db6db6db, 0x3fdb6db6db6db6db}, // 0, 0.1429, 0.4286, 0.4286
		[]uint64{0x7ff8000000000001, 0x3fe999999999999a, 0x3fd999999999999a, 0x3fd999999999999a}, // NaN, 0.8, 0.4, 0.4
		0x3fdd41d41d41d41d}, // 0.4571
	// 2-D, cost efficiency: P100 V100 A100.
	{2, true, 35,
		[]uint64{0x3fea83a83a83a83b, 0x3fb5f15f15f15f16, 0x3fb5f15f15f15f16}, // 0.8286, 0.0857, 0.0857
		[]uint64{0x3fe3dcb08d3dcb09, 0x0000000000000000, 0x0000000000000000}, // 0.6207, 0, 0
		0x3fe0750750750750}, // 0.5143
	// 3-D, pure performance: P100 V100 2080Ti A100.
	{3, false, 16,
		[]uint64{0x3fb0000000000000, 0x0000000000000000, 0x3fb0000000000000, 0x3fec000000000000}, // 0.0625, 0, 0.0625, 0.875
		[]uint64{0x0000000000000000, 0x7ff8000000000001, 0x0000000000000000, 0x3ff0000000000000}, // 0, NaN, 0, 1
		0x3fec000000000000}, // 0.875
	// 3-D, cost efficiency: P100 V100 A100.
	{3, true, 16,
		[]uint64{0x3fee000000000000, 0x0000000000000000, 0x3fb0000000000000}, // 0.9375, 0, 0.0625
		[]uint64{0x3ff0000000000000, 0x7ff8000000000001, 0x3ff0000000000000}, // 1, NaN, 1
		0x3ff0000000000000}, // 1
}

// TestRentStudyGolden pins Figs. 14 and 15 (GBRegressor, smoke preset)
// bit for bit: the held-out fold, the regressor fit, the sampled
// instances and both winner verdicts all feed these numbers.
func TestRentStudyGolden(t *testing.T) {
	fw := ckptFramework(t)
	for _, g := range rentGolden {
		rep, err := fw.RentStudy(RegGB, g.dims, g.costBased, 12)
		if err != nil {
			t.Fatalf("%d-D cost=%v: %v", g.dims, g.costBased, err)
		}
		if rep.Instances != g.instances {
			t.Errorf("%d-D cost=%v: %d instances, golden %d", g.dims, g.costBased, rep.Instances, g.instances)
		}
		same := func(what string, got []float64, want []uint64) {
			if len(got) != len(want) {
				t.Errorf("%d-D cost=%v: %d %s values, golden %d", g.dims, g.costBased, len(got), what, len(want))
				return
			}
			for i, v := range got {
				if math.Float64bits(v) != want[i] {
					t.Errorf("%d-D cost=%v %s %s: %v (bits %#x), golden %v (bits %#x)", g.dims, g.costBased,
						rep.ArchNames[i], what, v, math.Float64bits(v), math.Float64frombits(want[i]), want[i])
				}
			}
		}
		same("share", rep.Share, g.share)
		same("accuracy", rep.Accuracy, g.accuracy)
		same("overall", []float64{rep.Overall}, []uint64{g.overall})
	}
}
