package nn

// The pre-GEMM layer implementations, kept verbatim as test-only
// reference oracles: the direct 7-deep convolution loops and the per-row
// dense products the im2col+GEMM path replaced. The differential suite
// (reference_test.go) asserts the production kernels match these within
// 1e-9 on randomized shapes, and the naive benchmarks measure the
// speedup the lowering buys.

// The oracle's flat indices: inputs and outputs are channel-major
// volumes, weights are [outC][inC][kd][kh][kw].

func (c *Conv) inIdx(ch, z, y, x int) int {
	return ((ch*c.shape.D+z)*c.shape.H+y)*c.shape.W + x
}

func (c *Conv) outIdx(ch, z, y, x int) int {
	od, oh, ow := c.shape.OutDims()
	return ((ch*od+z)*oh+y)*ow + x
}

func (c *Conv) wIdx(oc, ic, kz, ky, kx int) int {
	return (((oc*c.shape.InC+ic)*c.shape.KD+kz)*c.shape.KH+ky)*c.shape.KW + kx
}

// referenceConvForward computes one sample's direct convolution.
func referenceConvForward(c *Conv, row []float64) []float64 {
	od, oh, ow := c.shape.OutDims()
	o := make([]float64, c.outWidth())
	for oc := 0; oc < c.outC; oc++ {
		for z := 0; z < od; z++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					acc := c.bias.W[oc]
					for ic := 0; ic < c.shape.InC; ic++ {
						for kz := 0; kz < c.shape.KD; kz++ {
							for ky := 0; ky < c.shape.KH; ky++ {
								for kx := 0; kx < c.shape.KW; kx++ {
									acc += row[c.inIdx(ic, z+kz, y+ky, xx+kx)] *
										c.weight.W[c.wIdx(oc, ic, kz, ky, kx)]
								}
							}
						}
					}
					o[c.outIdx(oc, z, y, xx)] = acc
				}
			}
		}
	}
	return o
}

// referenceConvBackward computes one sample's direct input gradient and
// accumulates the weight/bias gradients into wGrad and bGrad.
func referenceConvBackward(c *Conv, row, g []float64, wGrad, bGrad []float64) []float64 {
	od, oh, ow := c.shape.OutDims()
	dx := make([]float64, c.shape.InLen())
	for oc := 0; oc < c.outC; oc++ {
		for z := 0; z < od; z++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					gv := g[c.outIdx(oc, z, y, xx)]
					if gv == 0 {
						continue
					}
					bGrad[oc] += gv
					for ic := 0; ic < c.shape.InC; ic++ {
						for kz := 0; kz < c.shape.KD; kz++ {
							for ky := 0; ky < c.shape.KH; ky++ {
								for kx := 0; kx < c.shape.KW; kx++ {
									dx[c.inIdx(ic, z+kz, y+ky, xx+kx)] +=
										gv * c.weight.W[c.wIdx(oc, ic, kz, ky, kx)]
									wGrad[c.wIdx(oc, ic, kz, ky, kx)] +=
										gv * row[c.inIdx(ic, z+kz, y+ky, xx+kx)]
								}
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// referenceDenseForward computes one sample's dense product row*W + b.
func referenceDenseForward(d *Dense, row []float64) []float64 {
	o := make([]float64, d.out)
	copy(o, d.b.W)
	for j, v := range row {
		if v == 0 {
			continue
		}
		w := d.w.W[j*d.out : (j+1)*d.out]
		for k := range o {
			o[k] += v * w[k]
		}
	}
	return o
}

// referenceDenseBackward computes one sample's dense input gradient and
// accumulates the weight/bias gradients into wGrad and bGrad.
func referenceDenseBackward(d *Dense, row, g []float64, wGrad, bGrad []float64) []float64 {
	dx := make([]float64, d.in)
	for j := range dx {
		w := d.w.W[j*d.out : (j+1)*d.out]
		var s float64
		for k := range g {
			s += g[k] * w[k]
		}
		dx[j] = s
	}
	for j, v := range row {
		if v == 0 {
			continue
		}
		gw := wGrad[j*d.out : (j+1)*d.out]
		for k := range g {
			gw[k] += v * g[k]
		}
	}
	for k := range g {
		bGrad[k] += g[k]
	}
	return dx
}
