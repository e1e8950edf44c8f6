// Package linalg is the GEMM compute backbone of the neural-network
// stack: a flat row-major matrix type and cache-blocked matrix-multiply
// kernels, each written once over an element type T (float64 for
// training and the reference lane, float32 for the serving lane) and
// over a row range of the output, so the tile-parallel and the serial
// entry points run the same loop. Every output element is produced by
// exactly one worker with a fixed ascending k-accumulation order, so
// results are bitwise identical at any worker count — the same
// determinism contract the rest of the parallel pipeline holds.
// Im2col/Col2im lower 2-D and 3-D valid-padding convolutions onto these
// kernels.
package linalg

import (
	"context"
	"fmt"

	"stencilmart/internal/par"
)

// Float is the element types the kernels are instantiated at.
type Float interface{ float32 | float64 }

// Mat is a dense rows x cols matrix backed by one flat row-major slice:
// element (i, j) lives at Data[i*Cols+j].
type Mat[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix and MatrixF32 name the two instantiations in use.
type (
	Matrix    = Mat[float64]
	MatrixF32 = Mat[float32]
)

// New allocates a zeroed rows x cols float64 matrix.
func New(rows, cols int) *Matrix { return Resize[float64](nil, rows, cols) }

// NewF32 allocates a zeroed rows x cols float32 matrix.
func NewF32(rows, cols int) *MatrixF32 { return Resize[float32](nil, rows, cols) }

// FromRows packs a slice of equal-width rows into a new matrix.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: row %d width %d, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Resize returns m reshaped to rows x cols, reusing its backing slice
// when capacity allows; a nil m is allocated (zeroed). The contents of a
// reused matrix are unspecified — callers overwrite them.
func Resize[T Float](m *Mat[T], rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative shape %dx%d", rows, cols))
	}
	n := rows * cols
	if m == nil {
		return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, n)}
	}
	if cap(m.Data) < n {
		m.Data = make([]T, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// Row returns the i-th row as a subslice of the backing array.
func (m *Mat[T]) Row(i int) []T {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Mat[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Clone returns a deep copy.
func (m *Mat[T]) Clone() *Mat[T] {
	out := Resize[T](nil, m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Kernel tiling constants. rowTile is the unit of parallel work — it is a
// fixed constant (never derived from the worker count) so the assignment
// of output elements to accumulation loops cannot depend on scheduling.
// kBlock panels the shared operand so a tile's working set stays
// cache-resident while every element still accumulates in ascending k
// order (panels advance in order and each element is owned by one tile).
// ntTile is gemmNT's register tile, in output columns; the kernel body
// is written out for exactly that many accumulators (see GemmNT).
const (
	rowTile = 32
	kBlock  = 256
	ntTile  = 4
)

// RowKernel is work over an output whose rows are independent: Rows
// produces rows [lo, hi) and touches no other. A kernel is a small value
// holding its operands, so handing one to ForRows costs no allocation
// where a closure would.
type RowKernel interface{ Rows(lo, hi int) }

// forRanges runs k over [0, n) cut into step-sized ranges on the shared
// pool; workers <= 0 means GOMAXPROCS (par.Workers semantics). workers
// == 1 is the serial entry point: the whole range runs inline on the
// caller's goroutine and nothing is handed to the pool, which is what
// the f32 serving lane passes. One lane goroutine scores every request
// in turn, and a request is a handful of rows — a kernel call there is
// tens of microseconds, the order of the pool's own handoff and wake-up
// — so fanning out would add latency, and an inline call over
// caller-owned buffers is what keeps the warm scoring path at zero heap
// allocations. Each row belongs to exactly one range, so the result is
// bitwise the same either way.
func forRanges[K RowKernel](n, step, workers int, k K) {
	if workers == 1 || n <= step {
		k.Rows(0, n)
		return
	}
	// The jobs return no error and the context is never cancelled, so
	// an error here is a recovered panic: re-raise it.
	err := par.ForEach(context.Background(), (n+step-1)/step, workers, func(j int) error {
		k.Rows(j*step, min((j+1)*step, n))
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// ForRows runs k over [0, n) split into one contiguous range per
// worker, with the kernels' workers argument (<= 0: GOMAXPROCS; 1:
// inline). It is the fan-out for per-row work around the GEMMs — bias
// adds, activations, im2col, transposes.
func ForRows[K RowKernel](n, workers int, k K) {
	w := par.Workers(workers, n)
	forRanges(n, (n+w-1)/w, workers, k)
}

type gemm[T Float] struct{ c, a, b *Mat[T] }

func (g gemm[T]) Rows(lo, hi int) {
	c, a, b := g.c.Data, g.a.Data, g.b.Data
	n, kk := g.c.Cols, g.a.Cols
	clear(c[lo*n : hi*n])
	for k0 := 0; k0 < kk; k0 += kBlock {
		k1 := min(k0+kBlock, kk)
		for i := lo; i < hi; i++ {
			ci := c[i*n : (i+1)*n]
			ai := a[i*kk : (i+1)*kk]
			for k := k0; k < k1; k++ {
				aik := ai[k]
				if aik == 0 {
					continue
				}
				bk := b[k*n : (k+1)*n]
				for j, v := range bk {
					ci[j] += aik * v
				}
			}
		}
	}
}

// Gemm computes c = a·b for a (m x k), b (k x n), c (m x n). Zero
// entries of a are skipped — binary stencil tensors make the first
// network layer's input genuinely sparse — which is exact, not
// approximate: the skipped term contributes +0.0.
func Gemm[T Float](c, a, b *Mat[T], workers int) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: gemm shape (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	forRanges(c.Rows, rowTile, workers, gemm[T]{c, a, b})
}

type gemmNT[T Float] struct{ c, a, b *Mat[T] }

func (g gemmNT[T]) Rows(lo, hi int) {
	c, a, b := g.c.Data, g.a.Data, g.b.Data
	n, kk := g.c.Cols, g.a.Cols
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*kk : (i+1)*kk]
		j := 0
		for ; j+ntTile <= n; j += ntTile {
			b0 := b[j*kk : (j+1)*kk][:len(ai)]
			b1 := b[(j+1)*kk : (j+2)*kk][:len(ai)]
			b2 := b[(j+2)*kk : (j+3)*kk][:len(ai)]
			b3 := b[(j+3)*kk : (j+4)*kk][:len(ai)]
			var s0, s1, s2, s3 T
			for k, v := range ai {
				s0 += v * b0[k]
				s1 += v * b1[k]
				s2 += v * b2[k]
				s3 += v * b3[k]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b[j*kk : (j+1)*kk][:len(ai)]
			var s T
			for k, v := range ai {
				s += v * bj[k]
			}
			ci[j] = s
		}
	}
}

// GemmNT computes c = a·bᵀ for a (m x k), b (n x k), c (m x n): every
// output element is a dot product of an a-row and a b-row, both
// contiguous, accumulated in ascending k order. One dot product is one
// dependent add chain — a multiply-add per add latency — so the kernel
// computes ntTile adjacent columns per pass over the a-row: their chains
// overlap and each a value is loaded once for all of them (the bound
// becomes ntTile per add latency, or the scalar issue rate; DESIGN.md
// §12). Each element still sums its own products alone, in ascending k,
// so the tile changes the speed and not one bit of the result.
func GemmNT[T Float](c, a, b *Mat[T], workers int) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: gemmNT shape (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	forRanges(c.Rows, rowTile, workers, gemmNT[T]{c, a, b})
}

// GemmNTF32 is GemmNT's serial float32 entry point (workers 1, see
// forRanges), under the name bench/ calls.
func GemmNTF32(c, a, b *MatrixF32) { GemmNT(c, a, b, 1) }

type gemmTNAcc[T Float] struct{ c, a, b *Mat[T] }

func (g gemmTNAcc[T]) Rows(lo, hi int) {
	c, a, b := g.c.Data, g.a.Data, g.b.Data
	n, m := g.c.Cols, g.a.Cols
	for r := 0; r < g.a.Rows; r++ {
		ar := a[r*m : (r+1)*m]
		br := b[r*n : (r+1)*n]
		for i := lo; i < hi; i++ {
			ari := ar[i]
			if ari == 0 {
				continue
			}
			ci := c[i*n : (i+1)*n]
			ci = ci[:len(br)]
			for j, v := range br {
				ci[j] += ari * v
			}
		}
	}
}

// GemmTNAcc computes c += aᵀ·b for a (n x m), b (n x p), c (m x p) — the
// weight-gradient shape, accumulating into the existing gradient buffer.
// Each c-row (one a-column) is owned by one tile and sums ascending over
// a's rows, so gradient accumulation is deterministic by construction.
func GemmTNAcc[T Float](c, a, b *Mat[T], workers int) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: gemmTN shape (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	forRanges(c.Rows, rowTile, workers, gemmTNAcc[T]{c, a, b})
}

type colSums[T Float] struct {
	dst []T
	m   *Mat[T]
}

func (s colSums[T]) Rows(lo, hi int) {
	for r := 0; r < s.m.Rows; r++ {
		row := s.m.Row(r)
		for j := lo; j < hi; j++ {
			s.dst[j] += row[j]
		}
	}
}

// AddColSums accumulates the column sums of m into dst (len m.Cols) —
// the bias-gradient reduction. Each column is owned by one tile and sums
// ascending over rows.
func AddColSums[T Float](dst []T, m *Mat[T], workers int) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("linalg: colsums dst %d, want %d", len(dst), m.Cols))
	}
	forRanges(m.Cols, rowTile, workers, colSums[T]{dst, m})
}
