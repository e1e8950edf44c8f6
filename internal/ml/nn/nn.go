// Package nn is a from-scratch minibatch neural-network framework — the
// stdlib-only stand-in for the TensorFlow models in the paper. It provides
// dense and 2-D/3-D convolutional layers, ReLU, softmax cross-entropy and
// MSE losses, the Adam optimizer, and builders for the paper's four
// architectures: ConvNet and FcNet (classification, Sec. IV-D), MLP and
// ConvMLP (regression, Sec. IV-E).
//
// Batches are flat row-major linalg.Mat values and the heavy layers
// (Dense, Conv) lower onto the internal/linalg GEMM kernels: convolutions
// run as im2col + GEMM and every layer reuses per-layer scratch buffers
// across steps, so a training step allocates nothing proportional to the
// batch once buffers are warm. Each layer kind's forward pass is written
// once, generic over the element type (forward.go): training and the
// float64 lane run it at float64, the compiled f32 serving lane
// (compile.go) runs the same body at float32 over weights rounded once.
// All parallelism — GEMM tiles, per-row kernels through linalg.ForRows,
// Adam parameter blocks — preserves the pipeline's bitwise determinism
// contract: each output element is produced by exactly one worker with a
// fixed accumulation order. A trained model's Forward / Predict paths
// share those scratch buffers, so one model must not be called from
// multiple goroutines concurrently (distinct models are independent,
// which is how the CV folds parallelize).
package nn

import (
	"math"
	"math/rand"

	"stencilmart/internal/linalg"
)

// Param is one trainable parameter block with its gradient accumulator.
type Param struct {
	W []float64
	G []float64
}

func newParam(n int) *Param {
	return &Param{W: make([]float64, n), G: make([]float64, n)}
}

// zeroGrad clears the gradient accumulator.
func (p *Param) zeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Layer is one differentiable network stage operating on flat batch
// matrices (one row per sample). Returned matrices are layer-owned
// scratch, valid until the next call on the same layer.
type Layer interface {
	// forward is the layer kind's shared body (forward.go) at float64;
	// it leaves behind whatever Backward needs.
	layer[float64]
	// quantized is the same body at float32 over the layer's weights
	// rounded once (compile.go).
	quantized() layer[float32]
	// Backward consumes dLoss/dOut, accumulates parameter gradients, and
	// returns dLoss/dIn.
	Backward(grad *linalg.Matrix) *linalg.Matrix
	// Params returns the trainable parameters (nil for stateless layers).
	Params() []*Param
}

// heInit fills a weight slice with He-normal values for fanIn inputs.
func heInit(w []float64, fanIn int, rng *rand.Rand) {
	std := 1.0
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	for i := range w {
		w[i] = rng.NormFloat64() * std
	}
}
