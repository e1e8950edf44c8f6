// Package stats provides the statistical helpers the evaluation pipeline
// uses: Pearson correlation (OC merging, Sec. III-C), MAPE (regression
// error, Sec. V-C), classification accuracy and geometric-mean speedups.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. It returns an error for mismatched lengths, fewer than two
// observations, or zero variance in either sample.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: pearson length mismatch %d vs %d", len(x), len(y))
	}
	n := float64(len(x))
	if n < 2 {
		return 0, fmt.Errorf("stats: pearson needs >= 2 observations, got %d", len(x))
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: pearson undefined for zero-variance sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MAPE returns the mean absolute percentage error of predictions against
// ground truth, as a fraction (0.062 = 6.2%). Zero-valued truths are
// rejected because the metric is undefined there.
func MAPE(truth, pred []float64) (float64, error) {
	if len(truth) != len(pred) {
		return 0, fmt.Errorf("stats: MAPE length mismatch %d vs %d", len(truth), len(pred))
	}
	if len(truth) == 0 {
		return 0, fmt.Errorf("stats: MAPE of empty sample")
	}
	var sum float64
	for i := range truth {
		if truth[i] == 0 {
			return 0, fmt.Errorf("stats: MAPE undefined for zero truth at index %d", i)
		}
		sum += math.Abs((pred[i] - truth[i]) / truth[i])
	}
	return sum / float64(len(truth)), nil
}

// Accuracy returns the fraction of positions where the predicted and true
// labels agree.
func Accuracy(truth, pred []int) (float64, error) {
	if len(truth) != len(pred) {
		return 0, fmt.Errorf("stats: accuracy length mismatch %d vs %d", len(truth), len(pred))
	}
	if len(truth) == 0 {
		return 0, fmt.Errorf("stats: accuracy of empty sample")
	}
	hits := 0
	for i := range truth {
		if truth[i] == pred[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(truth)), nil
}

// GeoMean returns the geometric mean of strictly positive values — the
// aggregation used for speedup figures.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty sample")
	}
	var s float64
	for i, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %g at %d", x, i)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// Mean returns the arithmetic mean; it returns 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantiles returns the q-quantiles (e.g. 0.25, 0.5, 0.75) of the sample
// using linear interpolation on the sorted copy.
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: quantiles of empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 {
			return nil, fmt.Errorf("stats: quantile %g outside [0,1]", q)
		}
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out, nil
}
