package linalg

import "fmt"

// ConvShape describes one valid-padding, stride-1 convolution geometry
// over a (InC, D, H, W) volume; D == KD == 1 is the 2-D case. Kernel
// columns are ordered (ic, kz, ky, kx) — the same layout a weight matrix
// row [outC x KernelLen] uses, so lowered convolutions are plain GEMMs.
type ConvShape struct {
	InC, D, H, W int
	KD, KH, KW   int
}

// Validate checks the geometry admits at least one output point.
func (s ConvShape) Validate() error {
	if s.InC < 1 || s.D < 1 || s.H < 1 || s.W < 1 || s.KD < 1 || s.KH < 1 || s.KW < 1 {
		return fmt.Errorf("linalg: conv shape %+v has a non-positive dimension", s)
	}
	if s.KD > s.D || s.KH > s.H || s.KW > s.W {
		return fmt.Errorf("linalg: conv kernel %dx%dx%d larger than input %dx%dx%d",
			s.KD, s.KH, s.KW, s.D, s.H, s.W)
	}
	return nil
}

// OutDims returns the output spatial extents.
func (s ConvShape) OutDims() (od, oh, ow int) {
	return s.D - s.KD + 1, s.H - s.KH + 1, s.W - s.KW + 1
}

// InLen is the flat input width: InC*D*H*W.
func (s ConvShape) InLen() int { return s.InC * s.D * s.H * s.W }

// OutSpatial is the number of output points per channel (the M of the
// lowered GEMM).
func (s ConvShape) OutSpatial() int {
	od, oh, ow := s.OutDims()
	return od * oh * ow
}

// KernelLen is the patch width InC*KD*KH*KW (the K of the lowered GEMM).
func (s ConvShape) KernelLen() int { return s.InC * s.KD * s.KH * s.KW }

// Im2col writes one sample's patch matrix into rows
// [rowOff, rowOff+OutSpatial) of col (which must have KernelLen
// columns): row m holds the input patch under output point m, so
// output = weights · colᵀ. The innermost kx run is a contiguous copy
// from the input row.
func Im2col[T Float](s ConvShape, x []T, col *Mat[T], rowOff int) {
	if len(x) != s.InLen() {
		panic(fmt.Sprintf("linalg: im2col input %d, want %d", len(x), s.InLen()))
	}
	if col.Cols != s.KernelLen() {
		panic(fmt.Sprintf("linalg: im2col buffer %d columns, want %d", col.Cols, s.KernelLen()))
	}
	od, oh, ow := s.OutDims()
	m := rowOff
	for z := 0; z < od; z++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				dst := col.Row(m)
				m++
				k := 0
				for ic := 0; ic < s.InC; ic++ {
					for kz := 0; kz < s.KD; kz++ {
						for ky := 0; ky < s.KH; ky++ {
							src := ((ic*s.D+z+kz)*s.H+y+ky)*s.W + xx
							copy(dst[k:k+s.KW], x[src:src+s.KW])
							k += s.KW
						}
					}
				}
			}
		}
	}
}

// Col2im scatter-adds one sample's patch-gradient rows
// [rowOff, rowOff+OutSpatial) of col back onto the flat input gradient
// dx (len InLen), which the caller must have zeroed. It is the exact
// adjoint of Im2col.
func Col2im[T Float](s ConvShape, col *Mat[T], rowOff int, dx []T) {
	if len(dx) != s.InLen() {
		panic(fmt.Sprintf("linalg: col2im output %d, want %d", len(dx), s.InLen()))
	}
	if col.Cols != s.KernelLen() {
		panic(fmt.Sprintf("linalg: col2im buffer %d columns, want %d", col.Cols, s.KernelLen()))
	}
	od, oh, ow := s.OutDims()
	m := rowOff
	for z := 0; z < od; z++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				src := col.Row(m)
				m++
				k := 0
				for ic := 0; ic < s.InC; ic++ {
					for kz := 0; kz < s.KD; kz++ {
						for ky := 0; ky < s.KH; ky++ {
							dst := ((ic*s.D+z+kz)*s.H+y+ky)*s.W + xx
							for kx := 0; kx < s.KW; kx++ {
								dx[dst+kx] += src[k+kx]
							}
							k += s.KW
						}
					}
				}
			}
		}
	}
}
