package nn

import (
	"math/rand"
	"testing"

	"stencilmart/internal/tensor"
)

// Training benchmarks sized like one CV fold of the bench preset: the
// tensor side is the real 9 (2*MaxOrder+1), the epoch counts are small
// fixed numbers so before/after comparisons divide out to per-epoch cost.

func benchClassData(n, width, classes int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, width)
		for j := 0; j < width/8; j++ {
			row[rng.Intn(width)] = 1
		}
		x[i] = row
		y[i] = i % classes
	}
	return x, y
}

func benchRegData(n, width int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, width)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = rng.Float64()
	}
	return x, y
}

// BenchmarkConvNetTrain2D trains the paper's 2-D ConvNet classifier for 5
// epochs on 48 tensors — the end-to-end unit the Fig. 9 CV folds repeat.
func BenchmarkConvNetTrain2D(b *testing.B) {
	x, y := benchClassData(48, tensor.Side*tensor.Side, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls, err := NewConvNet(2, 4, TrainConfig{Epochs: 5, Batch: 16, LR: 2e-3, Seed: 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := cls.FitClassifier(x, y, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvNetTrain3D is the 3-D variant — the dominant cost of the
// network benchmarks (side^3 = 729 inputs through two 3^3 convolutions).
func BenchmarkConvNetTrain3D(b *testing.B) {
	x, y := benchClassData(48, tensor.Side*tensor.Side*tensor.Side, 4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls, err := NewConvNet(3, 4, TrainConfig{Epochs: 5, Batch: 16, LR: 2e-3, Seed: 1}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := cls.FitClassifier(x, y, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvMLPTrain3D trains the two-branch ConvMLP regressor for 2
// epochs on 64 instances — the per-epoch unit that bounds the Fig. 12
// ConvMLP budget.
func BenchmarkConvMLPTrain3D(b *testing.B) {
	const featDim = 24
	x, y := benchRegData(64, tensor.Side*tensor.Side*tensor.Side+featDim, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := NewConvMLP(3, featDim, TrainConfig{Epochs: 2, Batch: 64, LR: 1e-3, Seed: 1}, 3)
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.FitRegressor(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConvForward benchmarks one batched forward pass through a conv
// layer, optionally through the naive direct-loop reference instead of
// the im2col+GEMM path.
func benchConvForward(b *testing.B, dims, batch int, naive bool) {
	rng := rand.New(rand.NewSource(5))
	var c *Conv
	if dims == 2 {
		c = NewConv2D(1, 8, tensor.Side, tensor.Side, 3, rng)
	} else {
		c = NewConv3D(1, 8, tensor.Side, tensor.Side, tensor.Side, 3, rng)
	}
	x := randMatrix(batch, c.shape.InLen(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			for r := 0; r < batch; r++ {
				referenceConvForward(c, x.Row(r))
			}
		} else {
			c.forward(x, 0)
		}
	}
}

// BenchmarkConvForward2D measures the im2col+GEMM 2-D convolution on a
// 16-sample batch of 9x9 tensors (convStack layer 1).
func BenchmarkConvForward2D(b *testing.B) { benchConvForward(b, 2, 16, false) }

// BenchmarkConvForward2DNaive is the retired direct-loop path, kept as
// the speedup baseline.
func BenchmarkConvForward2DNaive(b *testing.B) { benchConvForward(b, 2, 16, true) }

// BenchmarkConvForward3D measures the im2col+GEMM 3-D convolution on a
// 16-sample batch of 9x9x9 tensors.
func BenchmarkConvForward3D(b *testing.B) { benchConvForward(b, 3, 16, false) }

// BenchmarkConvForward3DNaive is the retired direct-loop 3-D path.
func BenchmarkConvForward3DNaive(b *testing.B) { benchConvForward(b, 3, 16, true) }

// BenchmarkDenseTrain trains a pure fully connected stack (the FcNet/MLP
// shape) — isolates the dense-layer path.
func BenchmarkDenseTrain(b *testing.B) {
	x, y := benchRegData(256, 64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := NewMLP(64, 4, 64, TrainConfig{Epochs: 5, Batch: 64, LR: 1e-3, Seed: 1}, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.FitRegressor(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
