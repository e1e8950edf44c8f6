package nn

import (
	"fmt"
	"math/rand"

	"stencilmart/internal/linalg"
	"stencilmart/internal/tensor"
)

// TwoBranch routes the first splitAt features through branch A (e.g. a
// convolutional stack over the assigned tensor) and the remainder through
// branch B (e.g. identity over the parameter/hardware features), then
// concatenates the outputs — the ConvMLP merge of Fig. 8. Split and
// concat buffers are layer scratch, reused across steps.
type TwoBranch struct {
	twoBranch[float64, *Network]
	aOut int

	ga, gb, dx *linalg.Matrix // branch output gradients / input gradient
}

// NewTwoBranch builds the layer; aOut is branch A's flat output width.
func NewTwoBranch(splitAt int, a, b *Network, aOut int) *TwoBranch {
	return &TwoBranch{twoBranch: twoBranch[float64, *Network]{splitAt: splitAt, a: a, b: b}, aOut: aOut}
}

// Backward implements Layer: the forward pass's split and concat, on
// gradients — with its row map t.at, the identity after a per-row
// forward, which is the only kind Backward can follow.
func (t *TwoBranch) Backward(grad *linalg.Matrix) *linalg.Matrix {
	n := grad.Rows
	if t.xa.Rows != n {
		panic(fmt.Sprintf("nn: two-branch Backward over %d rows after a forward that folded them into %d", n, t.xa.Rows))
	}
	t.ga = linalg.Resize(t.ga, n, t.aOut)
	t.gb = linalg.Resize(t.gb, n, grad.Cols-t.aOut)
	linalg.ForRows(n, 0, splitCols[float64]{grad, t.ga, t.gb, t.at})
	da := t.a.Backward(t.ga)
	db := t.b.Backward(t.gb)
	t.dx = linalg.Resize(t.dx, n, da.Cols+db.Cols)
	linalg.ForRows(n, 0, concatCols[float64]{t.dx, da, db, t.at})
	return t.dx
}

// Params implements Layer.
func (t *TwoBranch) Params() []*Param {
	return append(t.a.Params(), t.b.Params()...)
}

// convStack builds the two-convolution feature extractor over the
// assigned tensor (Figs. 7 and 8): 3^d kernels, 8 then 16 filters. It
// returns the stack and its flat output width.
func convStack(dims int, rng *rand.Rand) (*Network, int) {
	side := tensor.Side
	var c1, c2 *Conv
	if dims == 2 {
		c1 = NewConv2D(1, 8, side, side, 3, rng)
		c2 = NewConv2D(8, 16, side-2, side-2, 3, rng)
	} else {
		c1 = NewConv3D(1, 8, side, side, side, 3, rng)
		c2 = NewConv3D(8, 16, side-2, side-2, side-2, 3, rng)
	}
	return NewNetwork(c1, NewReLU(), c2, NewReLU()), c2.outWidth()
}

// NewConvNet builds the paper's ConvNet classifier (Fig. 7): two
// convolutional layers over the binary tensor followed by fully connected
// layers emitting per-OC-class scores.
func NewConvNet(dims, classes int, cfg TrainConfig, seed int64) (*Classifier, error) {
	if dims != 2 && dims != 3 {
		return nil, fmt.Errorf("nn: ConvNet dims must be 2 or 3, got %d", dims)
	}
	if classes < 2 {
		return nil, fmt.Errorf("nn: ConvNet needs >= 2 classes")
	}
	rng := rand.New(rand.NewSource(seed))
	conv, convOut := convStack(dims, rng)
	layers := append([]Layer{}, conv.layers...)
	layers = append(layers,
		NewDense(convOut, 64, rng), NewReLU(),
		NewDense(64, classes, rng),
	)
	return &Classifier{Net: NewNetwork(layers...), Cfg: cfg}, nil
}

// NewFcNet builds the paper's FcNet classifier: fully connected layers
// only, consuming the flattened tensor plus feature vector.
func NewFcNet(inDim, classes, hiddenLayers, width int, cfg TrainConfig, seed int64) (*Classifier, error) {
	if inDim < 1 || classes < 2 || hiddenLayers < 1 || width < 1 {
		return nil, fmt.Errorf("nn: invalid FcNet shape in=%d classes=%d layers=%d width=%d",
			inDim, classes, hiddenLayers, width)
	}
	rng := rand.New(rand.NewSource(seed))
	var layers []Layer
	prev := inDim
	for i := 0; i < hiddenLayers; i++ {
		layers = append(layers, NewDense(prev, width, rng), NewReLU())
		prev = width
	}
	layers = append(layers, NewDense(prev, classes, rng))
	return &Classifier{Net: NewNetwork(layers...), Cfg: cfg}, nil
}

// NewMLP builds the paper's MLP regressor (Sec. IV-E): an input layer,
// hiddenLayers hidden layers of the given width, and a scalar output.
func NewMLP(inDim, hiddenLayers, width int, cfg TrainConfig, seed int64) (*Regressor, error) {
	if inDim < 1 || hiddenLayers < 1 || width < 1 {
		return nil, fmt.Errorf("nn: invalid MLP shape in=%d layers=%d width=%d", inDim, hiddenLayers, width)
	}
	rng := rand.New(rand.NewSource(seed))
	var layers []Layer
	prev := inDim
	for i := 0; i < hiddenLayers; i++ {
		layers = append(layers, NewDense(prev, width, rng), NewReLU())
		prev = width
	}
	layers = append(layers, NewDense(prev, 1, rng))
	return &Regressor{Net: NewNetwork(layers...), Cfg: cfg}, nil
}

// NewConvMLP builds the paper's ConvMLP regressor (Fig. 8): a CNN over
// the assigned tensor merged with an MLP over the parameter-setting and
// hardware features, joined by fully connected layers into a scalar
// prediction. featDim is the width of the non-tensor feature tail.
func NewConvMLP(dims, featDim int, cfg TrainConfig, seed int64) (*Regressor, error) {
	if dims != 2 && dims != 3 {
		return nil, fmt.Errorf("nn: ConvMLP dims must be 2 or 3, got %d", dims)
	}
	if featDim < 1 {
		return nil, fmt.Errorf("nn: ConvMLP needs a non-empty feature tail")
	}
	rng := rand.New(rand.NewSource(seed))
	tensorDim := tensor.Side * tensor.Side
	if dims == 3 {
		tensorDim *= tensor.Side
	}
	conv, convOut := convStack(dims, rng)
	featNet := NewNetwork(NewDense(featDim, 32, rng), NewReLU())
	branch := NewTwoBranch(tensorDim, conv, featNet, convOut)
	head := []Layer{
		branch,
		NewDense(convOut+32, 64, rng), NewReLU(),
		NewDense(64, 1, rng),
	}
	return &Regressor{Net: NewNetwork(head...), Cfg: cfg}, nil
}
