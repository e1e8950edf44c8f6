// Package ml defines the model interfaces shared by the gradient-boosting
// (internal/ml/tree) and neural-network (internal/ml/nn) implementations
// the framework trains for OC selection and performance prediction.
package ml

import "math"

// Classifier predicts class probabilities from feature vectors. Batch is
// the interface: the nn models run a row set through one batched forward
// and the tree ensembles stream every row through each tree while its
// columns are cache-hot, so a single row is a batch of one.
type Classifier interface {
	// FitClassifier trains on rows X with integer labels y in
	// [0, numClasses).
	FitClassifier(x [][]float64, y []int, numClasses int) error
	// PredictProbaBatch returns per-class probabilities for every row
	// (nil for no rows); ArgMax of a row is its predicted class.
	PredictProbaBatch(rows [][]float64) [][]float64
}

// Regressor predicts a scalar from feature vectors.
type Regressor interface {
	// FitRegressor trains on rows X with targets y.
	FitRegressor(x [][]float64, y []float64) error
	// PredictValueBatch returns the prediction for every row (nil for no
	// rows).
	PredictValueBatch(rows [][]float64) []float64
}

// ClassifierF32 is the inference-only float32 lane of a classifier: a
// compiled, forward-only model scoring arena-backed rows into a
// caller-provided flat output, allocating nothing once warm. Training
// stays on the float64 Classifier; compiled models are built from
// trained checkpoints (tree ensemble quantization, nn weight snapshots).
type ClassifierF32 interface {
	// Classes returns the number of classes scored per row.
	Classes() int
	// PredictProbaBatchF32 writes per-class probabilities for every row
	// into out, flat row-major (len(rows) * Classes()).
	PredictProbaBatchF32(rows [][]float32, out []float32)
}

// RegressorF32 is the inference-only float32 lane of a regressor.
type RegressorF32 interface {
	// PredictValueBatchF32 writes one prediction per row into out
	// (len(rows)).
	PredictValueBatchF32(rows [][]float32, out []float32)
}

// Rows slices a flat row-major block into its rows of width k; appending
// to one row cannot reach the next.
func Rows(flat []float64, k int) [][]float64 {
	rows := make([][]float64, len(flat)/k)
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// ArgMax returns the index of the largest probability (first wins ties).
func ArgMax[T float32 | float64](p []T) int {
	best := 0
	for k := range p {
		if p[k] > p[best] {
			best = k
		}
	}
	return best
}

// Softmax writes softmax(scores) into dst, which may be scores itself.
// Every model in both numeric formats goes through this one operation
// sequence (max-shift, exponentiate and sum in index order, divide), so
// training, float64 inference and float32 inference cannot drift apart.
// The exponential is evaluated in float64 — the stdlib has no float32
// math.Exp — and rounded once on the way back.
func Softmax[T float32 | float64](dst, scores []T) {
	maxv := scores[0]
	for _, s := range scores[1:] {
		if s > maxv {
			maxv = s
		}
	}
	var sum T
	for i, s := range scores {
		dst[i] = T(math.Exp(float64(s - maxv)))
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
}
