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

// BenchmarkGemmNT is the forward-pass shape: patch matrix times the
// transposed weight matrix.
func BenchmarkGemmNT(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	col := randomMatrix(64*125, 216, rng)
	w := randomMatrix(16, 216, rng)
	c := New(64*125, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNT(c, col, w, 0)
	}
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

// BenchmarkIm2col3D measures the lowering cost for the first 3-D conv.
func BenchmarkIm2col3D(b *testing.B) {
	s := ConvShape{InC: 1, D: 9, H: 9, W: 9, KD: 3, KH: 3, KW: 3}
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, s.InLen())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	col := New(s.OutSpatial(), s.KernelLen())
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
