package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil || !almost(r, 1) {
		t.Errorf("Pearson = %g, %v; want 1", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, err = Pearson(x, neg)
	if err != nil || !almost(r, -1) {
		t.Errorf("Pearson = %g, %v; want -1", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single observation accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance accepted")
	}
}

// Property: |PCC| <= 1 and PCC is symmetric.
func TestQuickPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		a, err1 := Pearson(x, y)
		b, err2 := Pearson(y, x)
		if err1 != nil || err2 != nil {
			return true // degenerate draw
		}
		return math.Abs(a) <= 1+1e-12 && almost(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMAPE(t *testing.T) {
	m, err := MAPE([]float64{100, 200}, []float64{110, 180})
	if err != nil || !almost(m, 0.1) {
		t.Errorf("MAPE = %g, %v; want 0.1", m, err)
	}
	if _, err := MAPE([]float64{0}, []float64{1}); err == nil {
		t.Error("zero truth accepted")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestAccuracy(t *testing.T) {
	a, err := Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4})
	if err != nil || !almost(a, 0.75) {
		t.Errorf("Accuracy = %g, %v; want 0.75", a, err)
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4})
	if err != nil || !almost(g, 2) {
		t.Errorf("GeoMean = %g, %v; want 2", g, err)
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestQuantiles(t *testing.T) {
	qs, err := Quantiles([]float64{4, 1, 3, 2}, 0, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(qs[0], 1) || !almost(qs[1], 2.5) || !almost(qs[2], 4) {
		t.Errorf("Quantiles = %v", qs)
	}
	if _, err := Quantiles([]float64{1}, 1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}
	if _, err := Quantiles(nil, 0.5); err == nil {
		t.Error("empty sample accepted")
	}
}
