package linalg

import (
	"math"
	"math/rand"
	"testing"

	"stencilmart/internal/testutil"
)

// The kernels exist once, generic over the element type, so every check
// below that is not about training-only code is one helper run at
// float64 and at float32.

func randomMat[T Float](rows, cols int, rng *rand.Rand) *Mat[T] {
	m := Resize[T](nil, rows, cols)
	for i := range m.Data {
		m.Data[i] = T(rng.NormFloat64())
		if rng.Intn(5) == 0 {
			m.Data[i] = 0 // exercise the zero-skip path
		}
	}
	return m
}

func randomMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	return randomMat[float64](rows, cols, rng)
}

// naiveGemm is the textbook triple loop the kernels are checked
// against. It accumulates in T in the kernels' ascending-k order, so at
// float32 (as at float64) the kernel's only freedom is the kBlock
// panelling — still the same addition sequence per output element.
func naiveGemm[T Float](a, b *Mat[T]) *Mat[T] {
	c := Resize[T](nil, a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s T
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Data[i*c.Cols+j] = s
		}
	}
	return c
}

func maxAbsDiff[T Float](a, b *Mat[T]) float64 {
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i] - b.Data[i])); d > worst {
			worst = d
		}
	}
	return worst
}

func transpose[T Float](m *Mat[T]) *Mat[T] {
	t := Resize[T](nil, m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.At(i, j)
		}
	}
	return t
}

func testGemmMatchesNaive[T Float](t *testing.T, seed int64, tol float64) {
	rng := rand.New(rand.NewSource(seed))
	// Shapes straddle the rowTile and kBlock boundaries.
	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 2}, {31, 7, 33}, {32, 300, 17}, {70, 257, 40}} {
		a := randomMat[T](sh[0], sh[1], rng)
		b := randomMat[T](sh[1], sh[2], rng)
		c := Resize[T](nil, sh[0], sh[2])
		// Pre-fill c with garbage: Gemm overwrites.
		for i := range c.Data {
			c.Data[i] = 99
		}
		Gemm(c, a, b, 0)
		if d := maxAbsDiff(c, naiveGemm(a, b)); d > tol {
			t.Errorf("Gemm %v: max diff %g", sh, d)
		}
	}
}

func TestGemmMatchesNaive(t *testing.T)    { testGemmMatchesNaive[float64](t, 1, 1e-12) }
func TestGemmF32MatchesNaive(t *testing.T) { testGemmMatchesNaive[float32](t, 11, 0) }

// testGemmNTMatchesNaive holds GemmNT to the ascending-k oracle exactly:
// the register tile computes ntTile columns per pass, but each element
// still sums its own products in order, so no tolerance is owed at
// either element type. The shapes cover every column remainder
// (n % ntTile), fewer columns than a tile, one row, and k of 0 and 1;
// workers 0 and 1 are the tile-parallel and the serial entry.
func testGemmNTMatchesNaive[T Float](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, sh := range [][3]int{
		{1, 1, 1}, {5, 3, 4}, {33, 40, 31}, {64, 257, 9},
		{7, 19, 8}, {7, 19, 5}, {7, 19, 6}, {7, 19, 7},
		{3, 11, 1}, {3, 11, 2}, {3, 11, 3},
		{1, 216, 16}, {1, 27, 11}, {6, 0, 5}, {6, 1, 5}, {40, 1, 4},
	} {
		a := randomMat[T](sh[0], sh[1], rng)
		b := randomMat[T](sh[2], sh[1], rng)
		want := naiveGemm(a, transpose(b))
		for _, workers := range []int{0, 1} {
			c := Resize[T](nil, sh[0], sh[2])
			// Pre-fill c with garbage: GemmNT overwrites.
			for i := range c.Data {
				c.Data[i] = 99
			}
			GemmNT(c, a, b, workers)
			if d := maxAbsDiff(c, want); d != 0 {
				t.Errorf("GemmNT %v workers %d: max diff %g, want exactly 0", sh, workers, d)
			}
		}
	}
}

func TestGemmNTMatchesNaive(t *testing.T)    { testGemmNTMatchesNaive[float64](t, 2) }
func TestGemmNTF32MatchesNaive(t *testing.T) { testGemmNTMatchesNaive[float32](t, 12) }

func TestGemmTNAccMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range [][3]int{{1, 1, 1}, {4, 5, 3}, {40, 33, 31}, {300, 20, 9}} {
		a := randomMatrix(sh[0], sh[1], rng)
		b := randomMatrix(sh[0], sh[2], rng)
		c := randomMatrix(sh[1], sh[2], rng)
		want := naiveGemm(transpose(a), b)
		for i := range want.Data {
			want.Data[i] += c.Data[i] // accumulate semantics
		}
		GemmTNAcc(c, a, b, 0)
		if d := maxAbsDiff(c, want); d > 1e-12 {
			t.Errorf("GemmTNAcc %v: max diff %g", sh, d)
		}
	}
}

func TestAddColSums(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(37, 41, rng)
	dst := make([]float64, 41)
	dst[0] = 2 // accumulate semantics
	AddColSums(dst, m, 0)
	for j := 0; j < m.Cols; j++ {
		want := 0.0
		if j == 0 {
			want = 2
		}
		for i := 0; i < m.Rows; i++ {
			want += m.At(i, j)
		}
		if math.Abs(dst[j]-want) > 1e-12 {
			t.Fatalf("col %d: got %g want %g", j, dst[j], want)
		}
	}
}

func testResizeReusesBacking[T Float](t *testing.T) {
	m := Resize[T](nil, 8, 8)
	p := &m.Data[0]
	m2 := Resize(m, 4, 6)
	if m2 != m || m.Rows != 4 || m.Cols != 6 || len(m.Data) != 24 {
		t.Fatalf("resize shape %dx%d len %d (same matrix: %v)", m.Rows, m.Cols, len(m.Data), m2 == m)
	}
	if &m.Data[0] != p {
		t.Error("shrinking resize reallocated")
	}
	m = Resize(m, 20, 20)
	if len(m.Data) != 400 {
		t.Fatalf("growing resize len %d", len(m.Data))
	}
	if got := Resize[T](nil, 2, 3); got.Rows != 2 || got.Cols != 3 || len(got.Data) != 6 {
		t.Fatalf("nil resize %dx%d len %d", got.Rows, got.Cols, len(got.Data))
	}
}

func TestResizeReusesBacking(t *testing.T) { testResizeReusesBacking[float64](t) }
func TestResizeF32Reuse(t *testing.T)      { testResizeReusesBacking[float32](t) }

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows = %+v", m)
	}
	if z := FromRows(nil); z.Rows != 0 {
		t.Fatalf("empty FromRows rows %d", z.Rows)
	}
}

// convShapes are the geometries the nn conv stack actually uses (side 9,
// two layers, 2-D and 3-D) plus randomized small shapes.
func convShapes(rng *rand.Rand) []ConvShape {
	shapes := []ConvShape{
		{InC: 1, D: 1, H: 9, W: 9, KD: 1, KH: 3, KW: 3},
		{InC: 8, D: 1, H: 7, W: 7, KD: 1, KH: 3, KW: 3},
		{InC: 1, D: 9, H: 9, W: 9, KD: 3, KH: 3, KW: 3},
		{InC: 8, D: 7, H: 7, W: 7, KD: 3, KH: 3, KW: 3},
	}
	for i := 0; i < 6; i++ {
		d, h, w := 1+rng.Intn(4), 2+rng.Intn(4), 2+rng.Intn(4)
		kd, kh, kw := 1+rng.Intn(d), 1+rng.Intn(h), 1+rng.Intn(w)
		shapes = append(shapes, ConvShape{
			InC: 1 + rng.Intn(3), D: d, H: h, W: w, KD: kd, KH: kh, KW: kw,
		})
	}
	return shapes
}

// testIm2colGemmMatchesDirectConv lowers a convolution to Im2col +
// GemmNT at element type T and checks it against the direct 7-deep loop,
// also evaluated in T.
func testIm2colGemmMatchesDirectConv[T Float](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range convShapes(rng) {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		outC := 1 + rng.Intn(4)
		x := make([]T, s.InLen())
		for i := range x {
			x[i] = T(rng.NormFloat64())
		}
		w := randomMat[T](outC, s.KernelLen(), rng)
		col := Resize[T](nil, s.OutSpatial(), s.KernelLen())
		Im2col(s, x, col, 0)
		got := Resize[T](nil, s.OutSpatial(), outC)
		GemmNT(got, col, w, 0)

		od, oh, ow := s.OutDims()
		for oc := 0; oc < outC; oc++ {
			m := 0
			for z := 0; z < od; z++ {
				for y := 0; y < oh; y++ {
					for xx := 0; xx < ow; xx++ {
						var want T
						for ic := 0; ic < s.InC; ic++ {
							for kz := 0; kz < s.KD; kz++ {
								for ky := 0; ky < s.KH; ky++ {
									for kx := 0; kx < s.KW; kx++ {
										wi := ((ic*s.KD+kz)*s.KH+ky)*s.KW + kx
										xi := ((ic*s.D+z+kz)*s.H+y+ky)*s.W + xx + kx
										want += x[xi] * w.At(oc, wi)
									}
								}
							}
						}
						if math.Abs(float64(got.At(m, oc)-want)) > tol {
							t.Fatalf("shape %+v oc %d m %d: got %g want %g", s, oc, m, got.At(m, oc), want)
						}
						m++
					}
				}
			}
		}
	}
}

func TestIm2colGemmMatchesDirectConv(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testIm2colGemmMatchesDirectConv[float64](t, 1e-9) })
	t.Run("f32", func(t *testing.T) { testIm2colGemmMatchesDirectConv[float32](t, 1e-4) })
}

// TestIm2colF32MatchesF64 lowers the same input at both element types:
// the f32 column matrix must equal the f64 one element for element
// (inputs are exactly representable, so the comparison is exact).
func TestIm2colF32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range []ConvShape{
		{InC: 1, D: 1, H: 9, W: 9, KD: 1, KH: 3, KW: 3},
		{InC: 4, D: 1, H: 7, W: 7, KD: 1, KH: 3, KW: 3},
		{InC: 2, D: 5, H: 5, W: 5, KD: 3, KH: 3, KW: 3},
	} {
		if err := shape.Validate(); err != nil {
			t.Fatal(err)
		}
		x64 := make([]float64, shape.InLen())
		x32 := make([]float32, shape.InLen())
		for i := range x64 {
			v := float64(rng.Intn(64)) / 8 // exactly representable in f32
			x64[i] = v
			x32[i] = float32(v)
		}
		m := shape.OutSpatial()
		col64 := New(m, shape.KernelLen())
		col32 := NewF32(m, shape.KernelLen())
		Im2col(shape, x64, col64, 0)
		Im2col(shape, x32, col32, 0)
		for i := range col64.Data {
			if float64(col32.Data[i]) != col64.Data[i] {
				t.Fatalf("shape %+v: col[%d] f32 %g vs f64 %g", shape, i, col32.Data[i], col64.Data[i])
			}
		}
	}
}

// TestCol2imIsAdjointOfIm2col checks <im2col(x), g> == <x, col2im(g)> —
// the defining property that makes Col2im the correct backward pass.
func TestCol2imIsAdjointOfIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range convShapes(rng) {
		x := make([]float64, s.InLen())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		g := randomMatrix(s.OutSpatial(), s.KernelLen(), rng)
		col := New(s.OutSpatial(), s.KernelLen())
		Im2col(s, x, col, 0)
		var lhs float64
		for i := range col.Data {
			lhs += col.Data[i] * g.Data[i]
		}
		dx := make([]float64, s.InLen())
		Col2im(s, g, 0, dx)
		var rhs float64
		for i := range x {
			rhs += x[i] * dx[i]
		}
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("shape %+v: <im2col(x),g>=%g but <x,col2im(g)>=%g", s, lhs, rhs)
		}
	}
}

func TestConvShapeValidate(t *testing.T) {
	if err := (ConvShape{InC: 1, D: 1, H: 3, W: 3, KD: 1, KH: 5, KW: 3}).Validate(); err == nil {
		t.Error("oversized kernel accepted")
	}
	if err := (ConvShape{InC: 0, D: 1, H: 3, W: 3, KD: 1, KH: 1, KW: 1}).Validate(); err == nil {
		t.Error("zero channels accepted")
	}
}

// testAllocGate pins the zero-allocation contract of the serial entry
// points: once output buffers exist, Gemm / GemmNT at workers 1,
// GemmNTF32's body and Im2col must not touch the heap — at any
// GOMAXPROCS, because workers == 1 never reaches the pool.
func testAllocGate[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randomMat[T](48, 300, rng)
	b := randomMat[T](300, 24, rng)
	bt := randomMat[T](24, 300, rng)
	c := Resize[T](nil, 48, 24)
	if n := testing.AllocsPerRun(20, func() { Gemm(c, a, b, 1) }); n != 0 {
		t.Errorf("Gemm allocs/op = %g, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { GemmNT(c, a, bt, 1) }); n != 0 {
		t.Errorf("GemmNT allocs/op = %g, want 0", n)
	}
	shape := ConvShape{InC: 1, D: 1, H: 9, W: 9, KD: 1, KH: 3, KW: 3}
	x := make([]T, shape.InLen())
	col := Resize[T](nil, shape.OutSpatial(), shape.KernelLen())
	if n := testing.AllocsPerRun(20, func() { Im2col(shape, x, col, 0) }); n != 0 {
		t.Errorf("Im2col allocs/op = %g, want 0", n)
	}
}

func TestAllocGateLinalgF64(t *testing.T) { testAllocGate[float64](t) }
func TestAllocGateLinalgF32(t *testing.T) { testAllocGate[float32](t) }

// TestSerialEntryMatchesTileParallel pins that the serial entry point
// (workers 1, and GemmNTF32, which bench/ calls) and the tile-parallel
// one (workers 0) are the same loop: bitwise-equal outputs at both
// element types, with one proc and with four.
func TestSerialEntryMatchesTileParallel(t *testing.T) {
	t.Run("f64", testSerialEntryMatchesTileParallel[float64])
	t.Run("f32", testSerialEntryMatchesTileParallel[float32])
}

func testSerialEntryMatchesTileParallel[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// 67 and 128 rows are several tiles; 300 columns cross a k panel;
	// 4, 33, 96, 6, 3 and 7 output columns leave GemmNT's register tile
	// every remainder, and fewer columns than one tile.
	for _, sh := range [][3]int{{5, 9, 4}, {67, 300, 33}, {128, 64, 96}, {70, 27, 6}, {40, 1, 3}, {33, 0, 7}} {
		a := randomMat[T](sh[0], sh[1], rng)
		b := randomMat[T](sh[1], sh[2], rng)
		bt := transpose(b)
		serial, serialNT := Resize[T](nil, sh[0], sh[2]), Resize[T](nil, sh[0], sh[2])
		Gemm(serial, a, b, 1)
		GemmNT(serialNT, a, bt, 1)
		for _, procs := range []int{1, 4} {
			testutil.WithGOMAXPROCS(t, procs, func() {
				tiled, tiledNT := Resize[T](nil, sh[0], sh[2]), Resize[T](nil, sh[0], sh[2])
				Gemm(tiled, a, b, 0)
				GemmNT(tiledNT, a, bt, 0)
				if d := maxAbsDiff(serial, tiled); d != 0 {
					t.Errorf("Gemm %v procs %d: serial vs tiled differ by %g", sh, procs, d)
				}
				if d := maxAbsDiff(serialNT, tiledNT); d != 0 {
					t.Errorf("GemmNT %v procs %d: serial vs tiled differ by %g", sh, procs, d)
				}
			})
		}
	}
	// GemmNTF32 is the named serial entry point.
	a, bt := randomMat[float32](67, 300, rng), randomMat[float32](33, 300, rng)
	named, tiled := NewF32(67, 33), NewF32(67, 33)
	GemmNTF32(named, a, bt)
	GemmNT(tiled, a, bt, 0)
	if d := maxAbsDiff(named, tiled); d != 0 {
		t.Errorf("GemmNTF32 vs GemmNT(workers 0) differ by %g", d)
	}
}
