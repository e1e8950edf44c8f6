package ml

import (
	"math"
	"testing"
)

func TestSoftmaxStable(t *testing.T) {
	p := make([]float64, 3)
	Softmax(p, []float64{1000, 1001, 999})
	var sum float64
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sums to %g", sum)
	}
	if p[1] < p[0] || p[1] < p[2] {
		t.Errorf("softmax ordering wrong: %v", p)
	}
}

// TestSoftmaxInPlaceAndF32: writing over the scores gives the bits a
// separate destination gets, and the float32 instantiation is the same
// sequence rounded per step (exp in float64, rounded once).
func TestSoftmaxInPlaceAndF32(t *testing.T) {
	scores := []float64{0.25, -3, 7.5, 7.5, 1e-3}
	want := make([]float64, len(scores))
	Softmax(want, scores)
	inPlace := append([]float64(nil), scores...)
	Softmax(inPlace, inPlace)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(inPlace[i]) {
			t.Fatalf("slot %d: in place %v, separate %v", i, inPlace[i], want[i])
		}
	}
	s32 := make([]float32, len(scores))
	for i, v := range scores {
		s32[i] = float32(v)
	}
	got := append([]float32(nil), s32...)
	Softmax(got, got)
	var sum float32
	exp := make([]float32, len(s32))
	for i, s := range s32 {
		exp[i] = float32(math.Exp(float64(s - s32[2])))
		sum += exp[i]
	}
	for i := range got {
		if got[i] != exp[i]/sum {
			t.Fatalf("slot %d: float32 softmax %v, want %v", i, got[i], exp[i]/sum)
		}
	}
}

func TestArgMaxFirstWinsTies(t *testing.T) {
	if got := ArgMax([]float64{0.1, 0.4, 0.4, 0.1}); got != 1 {
		t.Errorf("float64 ArgMax = %d, want 1", got)
	}
	if got := ArgMax([]float32{0.5, 0.5}); got != 0 {
		t.Errorf("float32 ArgMax = %d, want 0", got)
	}
}
