package gpu

import "testing"

func TestCatalogMatchesTableIII(t *testing.T) {
	cat := Catalog()
	if len(cat) != 4 {
		t.Fatalf("catalog has %d entries, want 4", len(cat))
	}
	want := []struct {
		name     string
		memGB    float64
		bw       float64
		sms      int
		tflops   float64
		rentable bool
	}{
		{"P100", 16, 720, 56, 5.3, true},
		{"V100", 32, 900, 80, 7.8, true},
		{"2080Ti", 11, 616, 68, 0.41, false},
		{"A100", 40, 1555, 108, 9.7, true},
	}
	for i, w := range want {
		a := cat[i]
		if a.Name != w.name || a.MemGB != w.memGB || a.MemBWGBs != w.bw ||
			a.SMs != w.sms || a.TFLOPS != w.tflops || a.HasRental() != w.rentable {
			t.Errorf("catalog[%d] = %+v, want %+v", i, a, w)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("A100")
	if err != nil || a.Generation != "Ampere" {
		t.Errorf("ByName(A100) = %v, %v", a, err)
	}
	if _, err := ByName("H100"); err == nil {
		t.Error("unknown GPU accepted")
	}
}

func TestFeaturesLayout(t *testing.T) {
	a, _ := ByName("V100")
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("FeaturesInto accepted a dst of width %d, want only %d", len(FeatureNames)+1, len(FeatureNames))
			}
		}()
		a.FeaturesInto(make([]float64, len(FeatureNames)+1))
	}()
	f := make([]float64, len(FeatureNames))
	a.FeaturesInto(f)
	if f[0] != 32 || f[1] != 900 || f[2] != 80 || f[3] != 7.8 {
		t.Errorf("V100 features = %v", f)
	}
}

func TestMicroarchSanity(t *testing.T) {
	for _, a := range Catalog() {
		if a.RegsPerSM <= 0 || a.SmemPerSMKB <= 0 || a.MaxThreadsPerSM <= 0 ||
			a.MaxRegsPerThread <= 0 || a.L2MB <= 0 || a.ClockGHz <= 0 {
			t.Errorf("%s has non-positive microarch parameter: %+v", a.Name, a)
		}
		if a.String() != a.Name {
			t.Errorf("String() = %q, want %q", a.String(), a.Name)
		}
	}
}
