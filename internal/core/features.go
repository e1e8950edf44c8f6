package core

import (
	"math"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/profile"
	"stencilmart/internal/stencil"
	"stencilmart/internal/tensor"
)

// classWidth is the classifier input width for a mechanism and
// dimensionality.
func classWidth(kind ClassifierKind, dims int) int {
	switch kind {
	case ClassGBDT:
		return tensor.NumFeatures
	case ClassConvNet:
		return tensor.VolumeLen(dims)
	default:
		return tensor.VolumeLen(dims) + tensor.NumFeatures
	}
}

// classRowInto encodes one stencil for a mechanism into dst (classWidth
// wide) without allocating: the Table II feature vector for GBDT, the
// flattened assigned tensor for ConvNet, tensor followed by features for
// FcNet. It panics on an invalid stencil — serving admits before
// encoding, and corpus stencils are valid by construction.
func classRowInto(kind ClassifierKind, s stencil.Stencil, dst []float64) {
	switch kind {
	case ClassGBDT:
		tensor.FeaturesInto(s, dst)
	case ClassConvNet:
		if err := tensor.AssignInto(s, dst); err != nil {
			panic(err)
		}
	default:
		vol := tensor.VolumeLen(s.Dims)
		if err := tensor.AssignInto(s, dst[:vol]); err != nil {
			panic(err)
		}
		tensor.FeaturesInto(s, dst[vol:])
	}
}

// classEncode is classRowInto into a fresh row.
func classEncode(kind ClassifierKind, s stencil.Stencil) []float64 {
	row := make([]float64, classWidth(kind, s.Dims))
	classRowInto(kind, s, row)
	return row
}

// regTailRowInto encodes the non-stencil part of a regression input into
// dst (regTailWidth wide): OC flags, the log2/enum-encoded parameter
// setting, the GPU hardware characteristics (Sec. IV-E), and a block of
// engineered interaction features. The interactions mirror the
// first-order structure of stencil kernels — per-thread coverage, tile
// halo ratios, x-merging and x-streaming (which break coalescing),
// per-line footprint — and are the kind of feature engineering the
// paper cites as standard practice for regression tasks (Sec. IV-C, [28]).
func regTailRowInto(s stencil.Stencil, oc opt.Opt, p opt.Params, arch gpu.Arch, dst []float64) {
	nf := len(opt.FlagNames)
	np := len(opt.ParamFeatureNames)
	ng := len(gpu.FeatureNames)
	oc.FlagVectorInto(dst[:nf])
	p.EncodeInto(dst[nf : nf+np])
	arch.FeaturesInto(dst[nf+np : nf+np+ng])

	order := float64(s.Order())
	cover := math.Log2(float64(maxi(p.Merge, 1)) * float64(maxi(p.Unroll, 1)) * float64(maxi(p.StreamTile, 1)))
	haloX := order / float64(p.BlockX)
	haloY := order / float64(p.BlockY*maxi(p.Merge, 1))
	bmX := 0.0
	if oc.Has(opt.BM) && p.MergeDim == 1 {
		bmX = float64(p.Merge)
	}
	stX := 0.0
	if oc.Has(opt.ST) && p.StreamDim == 1 {
		stX = 1
	}
	lines := float64(stencil.LineCount(s))
	streamDim := p.StreamDim
	if streamDim == 0 {
		streamDim = 3
	}
	planeLines := float64(stencil.PlaneLineCount(s, streamDim))
	tbHalo := 0.0
	if oc.Has(opt.TB) {
		tbHalo = order * float64(p.TBDepth)
	}
	tail := dst[nf+np+ng:]
	tail[0], tail[1], tail[2], tail[3] = cover, haloX, haloY, bmX
	tail[4], tail[5], tail[6], tail[7] = stX, lines, planeLines, tbHalo
}

// regInteractionNames lists the engineered tail features in order.
var regInteractionNames = []string{
	"log2Cover", "haloX", "haloY", "bmXMerge", "streamX", "lines", "planeLines", "tbHalo",
}

// regTailWidth is the width of regTailRowInto's output.
var regTailWidth = len(opt.FlagNames) + len(opt.ParamFeatureNames) + len(gpu.FeatureNames) + len(regInteractionNames)

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// regWidthFor is the regressor input width for a mechanism and
// dimensionality.
func regWidthFor(kind RegressorKind, dims int) int {
	if kind.usesTensor() {
		return tensor.VolumeLen(dims) + regTailWidth
	}
	return tensor.NumFeatures + regTailWidth
}

// regRowInto encodes one regression input into dst (regWidthFor wide)
// without allocating: the assigned tensor (ConvMLP) or the Table II
// features (MLP, GBRegressor), followed by the tail.
func regRowInto(kind RegressorKind, s stencil.Stencil, oc opt.Opt, p opt.Params, arch gpu.Arch, dst []float64) {
	var head int
	if kind.usesTensor() {
		head = tensor.VolumeLen(s.Dims)
		if err := tensor.AssignInto(s, dst[:head]); err != nil {
			panic(err)
		}
	} else {
		head = tensor.NumFeatures
		tensor.FeaturesInto(s, dst[:head])
	}
	regTailRowInto(s, oc, p, arch, dst[head:])
}

// regRow is regRowInto into a fresh row.
func regRow(kind RegressorKind, s stencil.Stencil, oc opt.Opt, p opt.Params, arch gpu.Arch) []float64 {
	row := make([]float64, regWidthFor(kind, s.Dims))
	regRowInto(kind, s, oc, p, arch, row)
	return row
}

// regTarget converts an instance time to the training target. Regressors
// fit log2(time) (DESIGN.md decision 2); predictions invert with
// regInvert.
func regTarget(seconds float64) float64 { return math.Log2(seconds) }

// regInvert converts a predicted target back to seconds.
func regInvert(target float64) float64 { return math.Exp2(target) }

// instanceRow builds the regression input row for a profiled instance.
func (f *Framework) instanceRow(kind RegressorKind, in profile.Instance) ([]float64, error) {
	_, arch, err := f.ArchByName(in.Arch)
	if err != nil {
		return nil, err
	}
	return regRow(kind, f.Dataset.Stencils[in.StencilIdx], in.OC, in.Params, arch), nil
}

// columnScaler rescales feature columns to [0, 1] by the training maxima
// — the paper's normalization for network inputs. Tree models skip it.
type columnScaler struct {
	scale []float64
}

// fitScaler computes column maxima over training rows and normalizes them
// in place.
func fitScaler(rows [][]float64) columnScaler {
	return columnScaler{scale: tensor.NormalizeColumns(rows)}
}

// apply normalizes one row with the fitted maxima.
func (c columnScaler) apply(row []float64) []float64 {
	if c.scale == nil {
		return row
	}
	return tensor.ApplyScale(row, c.scale)
}

// targetScaler standardizes regression targets for network training.
type targetScaler struct {
	mean, std float64
}

func fitTargetScaler(y []float64) targetScaler {
	var m float64
	for _, v := range y {
		m += v
	}
	m /= float64(len(y))
	var s float64
	for _, v := range y {
		s += (v - m) * (v - m)
	}
	s = math.Sqrt(s / float64(len(y)))
	if s == 0 {
		s = 1
	}
	for i := range y {
		y[i] = (y[i] - m) / s
	}
	return targetScaler{mean: m, std: s}
}

func (t targetScaler) invert(v float64) float64 {
	if t.std == 0 {
		return v
	}
	return v*t.std + t.mean
}
