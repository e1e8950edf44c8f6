package linalg

import (
	"math/rand"
	"testing"
)

// BenchmarkGemm measures the blocked kernel at the batch-GEMM shape the
// 3-D conv stack produces (batch 64 x 125 output points, K = 216,
// outC = 16 — the second ConvMLP convolution).
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(64*125, 216, rng)
	w := randomMatrix(216, 16, rng)
	c := New(64*125, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(c, a, w, 0)
	}
}

// BenchmarkGemmNT is the forward-pass shape — patch matrix times the
// transposed weight matrix — at the training size (a 64-sample batch of
// the second 3-D convolution, tile-parallel) and at the size one served
// row lowers to (125 x 216 x 16, serial, both element types).
func BenchmarkGemmNT(b *testing.B) {
	b.Run("train64/f64", func(b *testing.B) { benchGemmNT[float64](b, 64*125, 216, 16, 0) })
	b.Run("row1/f64", func(b *testing.B) { benchGemmNT[float64](b, 125, 216, 16, 1) })
	b.Run("row1/f32", func(b *testing.B) { benchGemmNT[float32](b, 125, 216, 16, 1) })
}

func benchGemmNT[T Float](b *testing.B, m, k, n, workers int) {
	rng := rand.New(rand.NewSource(2))
	col := randomMat[T](m, k, rng)
	w := randomMat[T](n, k, rng)
	c := Resize[T](nil, m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNT(c, col, w, workers)
	}
	b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkGemmTNAcc is the weight-gradient shape.
func BenchmarkGemmTNAcc(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomMatrix(64*125, 16, rng)
	col := randomMatrix(64*125, 216, rng)
	c := New(16, 216)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTNAcc(c, g, col, 0)
	}
}

// BenchmarkIm2col3D measures the lowering cost of one sample at the two
// 3-D convolutions of the conv stack, at both element types.
func BenchmarkIm2col3D(b *testing.B) {
	conv1 := ConvShape{InC: 1, D: 9, H: 9, W: 9, KD: 3, KH: 3, KW: 3}
	conv2 := ConvShape{InC: 8, D: 7, H: 7, W: 7, KD: 3, KH: 3, KW: 3}
	b.Run("conv1/f64", func(b *testing.B) { benchIm2col[float64](b, conv1) })
	b.Run("conv1/f32", func(b *testing.B) { benchIm2col[float32](b, conv1) })
	b.Run("conv2/f64", func(b *testing.B) { benchIm2col[float64](b, conv2) })
	b.Run("conv2/f32", func(b *testing.B) { benchIm2col[float32](b, conv2) })
}

func benchIm2col[T Float](b *testing.B, s ConvShape) {
	rng := rand.New(rand.NewSource(4))
	x := make([]T, s.InLen())
	for i := range x {
		x[i] = T(rng.NormFloat64())
	}
	col := Resize[T](nil, s.OutSpatial(), s.KernelLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2col(s, x, col, 0)
	}
}

// BenchmarkLaneGemm compares the f64 serving-shape GEMM against the f32
// lane on the dense shapes the compiled networks hit (small batch, wide
// k) — the `make bench-lanes` microbenchmark pair. Both run the serial
// entry point, as the f32 lane does.
func BenchmarkLaneGemm(b *testing.B) {
	b.Run("f64", benchLaneGemm[float64])
	b.Run("f32", benchLaneGemm[float32])
}

func benchLaneGemm[T Float](b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	const m, k, n = 32, 729, 64
	a := randomMat[T](m, k, rng)
	w := randomMat[T](k, n, rng)
	c := Resize[T](nil, m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(c, a, w, 1)
	}
}
