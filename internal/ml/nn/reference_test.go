package nn

import (
	"math"
	"math/rand"
	"testing"

	"stencilmart/internal/linalg"
	"stencilmart/internal/testutil"
)

// convCases covers every geometry convStack instantiates (both layers,
// 2-D and 3-D) plus randomized small shapes.
type convCase struct {
	name                           string
	inC, outC, d, h, w, kd, kh, kw int
}

func convCases(rng *rand.Rand) []convCase {
	cases := []convCase{
		{"2d-conv1", 1, 8, 1, 9, 9, 1, 3, 3},
		{"2d-conv2", 8, 16, 1, 7, 7, 1, 3, 3},
		{"3d-conv1", 1, 8, 9, 9, 9, 3, 3, 3},
		{"3d-conv2", 8, 16, 7, 7, 7, 3, 3, 3},
	}
	for i := 0; i < 6; i++ {
		kd, kh, kw := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3)
		c := convCase{
			name: "rand",
			inC:  1 + rng.Intn(3), outC: 1 + rng.Intn(5),
			d: kd + rng.Intn(4), h: kh + rng.Intn(4), w: kw + rng.Intn(4),
			kd: kd, kh: kh, kw: kw,
		}
		cases = append(cases, c)
	}
	return cases
}

func randMatrix(rows, cols int, rng *rand.Rand) *linalg.Matrix {
	m := linalg.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestConvMatchesReference checks the im2col+GEMM convolution against the
// direct 7-loop reference on every convStack geometry and randomized
// shapes: activations, input gradients, and parameter gradients all
// within 1e-9.
func TestConvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const tol = 1e-9
	for _, tc := range convCases(rng) {
		c := newConv(tc.inC, tc.outC, tc.d, tc.h, tc.w, tc.kd, tc.kh, tc.kw, rng)
		n := 1 + rng.Intn(5)
		x := randMatrix(n, c.shape.InLen(), rng)
		// Mix in exact zeros to exercise the zero-skip fast paths.
		for i := range x.Data {
			if rng.Intn(3) == 0 {
				x.Data[i] = 0
			}
		}
		out := c.forward(x, 0)
		grad := randMatrix(n, c.outWidth(), rng)
		dx := c.Backward(grad)

		wantW := make([]float64, len(c.weight.G))
		wantB := make([]float64, len(c.bias.G))
		for i := 0; i < n; i++ {
			wantOut := referenceConvForward(c, x.Row(i))
			if d := maxAbsDiff(out.Row(i), wantOut); d > tol {
				t.Errorf("%s: forward row %d off by %g", tc.name, i, d)
			}
			wantDx := referenceConvBackward(c, x.Row(i), grad.Row(i), wantW, wantB)
			if d := maxAbsDiff(dx.Row(i), wantDx); d > tol {
				t.Errorf("%s: input grad row %d off by %g", tc.name, i, d)
			}
		}
		if d := maxAbsDiff(c.weight.G, wantW); d > tol {
			t.Errorf("%s: weight grads off by %g", tc.name, d)
		}
		if d := maxAbsDiff(c.bias.G, wantB); d > tol {
			t.Errorf("%s: bias grads off by %g", tc.name, d)
		}
		c.weight.zeroGrad()
		c.bias.zeroGrad()
	}
}

// TestDenseMatchesReference checks the GEMM dense layer against the
// per-row reference on randomized shapes.
func TestDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const tol = 1e-9
	for trial := 0; trial < 8; trial++ {
		in, out := 1+rng.Intn(40), 1+rng.Intn(20)
		d := NewDense(in, out, rng)
		n := 1 + rng.Intn(6)
		x := randMatrix(n, in, rng)
		for i := range x.Data {
			if rng.Intn(4) == 0 {
				x.Data[i] = 0
			}
		}
		act := d.forward(x, 0)
		grad := randMatrix(n, out, rng)
		dx := d.Backward(grad)

		wantW := make([]float64, len(d.w.G))
		wantB := make([]float64, len(d.b.G))
		for i := 0; i < n; i++ {
			wantAct := referenceDenseForward(d, x.Row(i))
			if diff := maxAbsDiff(act.Row(i), wantAct); diff > tol {
				t.Errorf("trial %d: forward row %d off by %g", trial, i, diff)
			}
			wantDx := referenceDenseBackward(d, x.Row(i), grad.Row(i), wantW, wantB)
			if diff := maxAbsDiff(dx.Row(i), wantDx); diff > tol {
				t.Errorf("trial %d: input grad row %d off by %g", trial, i, diff)
			}
		}
		if diff := maxAbsDiff(d.w.G, wantW); diff > tol {
			t.Errorf("trial %d: weight grads off by %g", trial, diff)
		}
		if diff := maxAbsDiff(d.b.G, wantB); diff > tol {
			t.Errorf("trial %d: bias grads off by %g", trial, diff)
		}
	}
}

// trainSmallConvMLP trains a small ConvMLP and returns its flattened
// weights, for the cross-GOMAXPROCS determinism check.
func trainSmallConvMLP(t *testing.T) []float64 {
	t.Helper()
	reg, err := NewConvMLP(2, 5, TrainConfig{Epochs: 2, Batch: 8, LR: 1e-3, Seed: 13}, 17)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	inDim := reg.Net.layers[0].(*TwoBranch).splitAt + 5
	var x [][]float64
	var y []float64
	for i := 0; i < 32; i++ {
		row := make([]float64, inDim)
		for j := range row {
			if rng.Intn(2) == 0 {
				row[j] = rng.Float64()
			}
		}
		x = append(x, row)
		y = append(y, rng.NormFloat64())
	}
	if err := reg.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for _, p := range reg.Net.Params() {
		flat = append(flat, p.W...)
	}
	return flat
}

// TestTrainingBitwiseDeterministicAcrossGOMAXPROCS trains the same
// ConvMLP end to end at GOMAXPROCS 1, 2, and 8 and requires bitwise
// identical weights — the whole-stack determinism guarantee (GEMM tiles,
// im2col, transposes, Adam blocks).
func TestTrainingBitwiseDeterministicAcrossGOMAXPROCS(t *testing.T) {
	var base []float64
	testutil.WithGOMAXPROCS(t, 1, func() {
		base = trainSmallConvMLP(t)
	})
	for _, procs := range []int{2, 8} {
		var got []float64
		testutil.WithGOMAXPROCS(t, procs, func() {
			got = trainSmallConvMLP(t)
		})
		if len(got) != len(base) {
			t.Fatalf("GOMAXPROCS=%d: %d weights, want %d", procs, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("GOMAXPROCS=%d: weight %d = %v, want %v (not bitwise identical)",
					procs, i, got[i], base[i])
			}
		}
	}
}
