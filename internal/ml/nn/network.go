package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"stencilmart/internal/linalg"
	"stencilmart/internal/ml"
	"stencilmart/internal/par"
)

// Adam is the Adam optimizer over a set of parameter blocks.
type Adam struct {
	lr, beta1, beta2, eps float64
	m, v                  [][]float64
	t                     int
	params                []*Param
}

// NewAdam prepares Adam state for the given parameters. lr <= 0 defaults
// to 1e-3.
func NewAdam(params []*Param, lr float64) *Adam {
	if lr <= 0 {
		lr = 1e-3
	}
	a := &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.W)))
		a.v = append(a.v, make([]float64, len(p.W)))
	}
	return a
}

// Step applies one Adam update from the accumulated gradients, then
// clears them. Parameter blocks update independently — each block is
// touched by exactly one worker — so the update fans out on the shared
// pool and stays deterministic by construction.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	// The closure never fails and the context is never cancelled, so the
	// pool error is structurally nil.
	_ = par.ForEach(context.Background(), len(a.params), 0, func(pi int) error {
		p := a.params[pi]
		m, v := a.m[pi], a.v[pi]
		for i := range p.W {
			g := p.G[i]
			m[i] = a.beta1*m[i] + (1-a.beta1)*g
			v[i] = a.beta2*v[i] + (1-a.beta2)*g*g
			p.W[i] -= a.lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.eps)
		}
		p.zeroGrad()
		return nil
	})
}

// Network is a sequential layer stack.
type Network struct {
	layers []Layer
}

// NewNetwork builds a sequential network.
func NewNetwork(layers ...Layer) *Network { return &Network{layers: layers} }

// forward runs the batch through every layer; workers 0 is the shared
// pool. The result is scratch owned by the final layer (or x itself for
// an empty network).
func (n *Network) forward(x *linalg.Matrix, workers int) *linalg.Matrix {
	for _, l := range n.layers {
		x = l.forward(x, workers)
	}
	return x
}

// Backward propagates output gradients through every layer.
func (n *Network) Backward(grad *linalg.Matrix) *linalg.Matrix {
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
	return grad
}

// training switches the network's two-branch layers between the per-row
// forward Backward needs and the inference one, which folds shared heads.
func (n *Network) training(on bool) {
	for _, l := range n.layers {
		if t, ok := l.(*TwoBranch); ok {
			t.perRow = on
		}
	}
}

// Params collects all trainable parameters.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the total trainable scalar count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}

// TrainConfig controls minibatch training.
type TrainConfig struct {
	// Epochs is the number of full passes; 0 means 30.
	Epochs int
	// Batch is the minibatch size; 0 means 50.
	Batch int
	// LR is the Adam learning rate; 0 means 1e-3.
	LR float64
	// Seed shuffles minibatches deterministically.
	Seed int64
}

func (c *TrainConfig) setDefaults() {
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.Batch == 0 {
		c.Batch = 50
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
}

// trainLoop is the shared minibatch loop; lossGrad writes the output
// gradients for a batch of outputs and target indices into grad. The
// batch and gradient matrices are reused across steps, so once every
// layer's scratch is warm a step performs no batch-sized allocations.
func trainLoop(net *Network, x [][]float64, cfg TrainConfig,
	lossGrad func(out *linalg.Matrix, batchIdx []int, grad *linalg.Matrix)) {
	cfg.setDefaults()
	net.training(true)
	defer net.training(false)
	rng := rand.New(rand.NewSource(cfg.Seed))
	adam := NewAdam(net.Params(), cfg.LR)
	n := len(x)
	rows := make([][]float64, 0, cfg.Batch)
	var batch, grad *linalg.Matrix
	for e := 0; e < cfg.Epochs; e++ {
		perm := rng.Perm(n)
		for lo := 0; lo < n; lo += cfg.Batch {
			hi := lo + cfg.Batch
			if hi > n {
				hi = n
			}
			idx := perm[lo:hi]
			rows = rows[:0]
			for _, p := range idx {
				rows = append(rows, x[p])
			}
			batch = packAll(batch, rows)
			out := net.forward(batch, 0)
			grad = linalg.Resize(grad, out.Rows, out.Cols)
			lossGrad(out, idx, grad)
			net.Backward(grad)
			adam.Step()
		}
	}
}

// Classifier wraps a network with a softmax cross-entropy head; it
// implements ml.Classifier. One Classifier must not be used from
// multiple goroutines concurrently (forward scratch is shared); distinct
// instances are independent.
type Classifier struct {
	Net     *Network
	Cfg     TrainConfig
	classes int
	in      *linalg.Matrix // reusable inference input
}

// FitClassifier implements ml.Classifier.
func (c *Classifier) FitClassifier(x [][]float64, y []int, numClasses int) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("nn: classifier fit with %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 2 {
		return fmt.Errorf("nn: classifier needs >= 2 classes, got %d", numClasses)
	}
	c.classes = numClasses
	trainLoop(c.Net, x, c.Cfg, func(out *linalg.Matrix, idx []int, grad *linalg.Matrix) {
		scale := 1 / float64(out.Rows)
		for i := 0; i < out.Rows; i++ {
			g := grad.Row(i)
			ml.Softmax(g, out.Row(i))
			for k := range g {
				g[k] *= scale
			}
			g[y[idx[i]]] -= scale
		}
	})
	return nil
}

// PredictProbaBatch implements ml.Classifier: one forward pass for the
// whole row set, then a softmax per row. The rows of the result share
// one backing array.
func (c *Classifier) PredictProbaBatch(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	c.in = packAll(c.in, rows)
	out := c.Net.forward(c.in, 0)
	probs := ml.Rows(make([]float64, out.Rows*out.Cols), out.Cols)
	for i := range probs {
		ml.Softmax(probs[i], out.Row(i))
	}
	return probs
}

// Regressor wraps a network with an MSE head; the final layer must output
// one value. It implements ml.Regressor. Like Classifier, one instance is
// not safe for concurrent use.
type Regressor struct {
	Net *Network
	Cfg TrainConfig
	in  *linalg.Matrix // reusable inference input
}

// FitRegressor implements ml.Regressor.
func (r *Regressor) FitRegressor(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("nn: regressor fit with %d rows, %d targets", len(x), len(y))
	}
	trainLoop(r.Net, x, r.Cfg, func(out *linalg.Matrix, idx []int, grad *linalg.Matrix) {
		scale := 2 / float64(out.Rows)
		for i := 0; i < out.Rows; i++ {
			grad.Row(i)[0] = (out.Row(i)[0] - y[idx[i]]) * scale
		}
	})
	return nil
}

// PredictValueBatch implements ml.Regressor: one forward pass for the
// whole row set.
func (r *Regressor) PredictValueBatch(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	r.in = packAll(r.in, rows)
	out := r.Net.forward(r.in, 0)
	vals := make([]float64, out.Rows)
	for i := range vals {
		vals[i] = out.Row(i)[0]
	}
	return vals
}
