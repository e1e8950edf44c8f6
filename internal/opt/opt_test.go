package opt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidConstraints(t *testing.T) {
	cases := []struct {
		oc   Opt
		want bool
	}{
		{0, true},
		{ST, true},
		{TB, true},
		{BM | CM, false},
		{RT, false},
		{PR, false},
		{ST | RT, true},
		{ST | PR, true},
		{ST | RT | PR | BM | TB, true},
		{ST | RT | PR | BM | CM, false},
		{TB | CM, true},
		{TB | RT, false},
	}
	for _, c := range cases {
		if got := c.oc.Valid(); got != c.want {
			t.Errorf("Valid(%s) = %v, want %v", c.oc, got, c.want)
		}
		if err := c.oc.ValidationError(); (err == nil) != c.want {
			t.Errorf("ValidationError(%s) = %v, valid=%v", c.oc, err, c.want)
		}
	}
}

func TestCombinationsCount(t *testing.T) {
	combos := Combinations()
	if len(combos) != NumCombinations {
		t.Fatalf("Combinations() = %d, want %d", len(combos), NumCombinations)
	}
	seen := map[Opt]bool{}
	for i, oc := range combos {
		if !oc.Valid() {
			t.Errorf("invalid OC %s in enumeration", oc)
		}
		if seen[oc] {
			t.Errorf("duplicate OC %s", oc)
		}
		seen[oc] = true
		if got := Index(oc); got != i {
			t.Errorf("Index(%s) = %d, want %d", oc, got, i)
		}
	}
	if Index(BM|CM) != -1 {
		t.Error("Index of invalid OC != -1")
	}
}

func TestStringAndParse(t *testing.T) {
	cases := map[Opt]string{
		0:                 "BASE",
		ST:                "ST",
		TB | CM:           "TB_CM",
		TB | BM:           "TB_BM",
		ST | TB | RT:      "ST_TB_RT",
		ST | BM | RT | PR: "ST_BM_RT_PR",
	}
	for oc, want := range cases {
		if got := oc.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", oc, got, want)
		}
		back, err := Parse(want)
		if err != nil || back != oc {
			t.Errorf("Parse(%q) = %v, %v; want %v", want, back, err, oc)
		}
	}
	if _, err := Parse("ST_XX"); err == nil {
		t.Error("Parse accepted unknown abbreviation")
	}
}

func TestParseRoundTripAll(t *testing.T) {
	for _, oc := range Combinations() {
		back, err := Parse(oc.String())
		if err != nil {
			t.Fatalf("%s: %v", oc, err)
		}
		if back != oc {
			t.Fatalf("round trip %s -> %s", oc, back)
		}
	}
}

func TestFlagVector(t *testing.T) {
	v := []float64{9, 9, 9, 9, 9, 9} // stale scratch: every slot is written
	(ST | PR).FlagVectorInto(v)
	want := []float64{1, 0, 0, 0, 0, 1}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("FlagVectorInto = %v, want %v", v, want)
		}
	}
	if len(FlagNames) != len(v) {
		t.Fatalf("FlagNames length %d != vector length %d", len(FlagNames), len(v))
	}
}

func TestSampleAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, oc := range Combinations() {
		for _, dims := range []int{2, 3} {
			for i := 0; i < 50; i++ {
				p := Sample(oc, dims, rng)
				if err := p.Validate(oc, dims); err != nil {
					t.Fatalf("oc=%s dims=%d: %v (params %+v)", oc, dims, err, p)
				}
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Sample(ST, 2, rng)
	if err := p.Validate(0, 2); err == nil {
		t.Error("streaming params accepted under BASE")
	}
	q := Sample(0, 2, rng)
	q.BlockX = 48
	if err := q.Validate(0, 2); err == nil {
		t.Error("non-pow2 block accepted")
	}
	q = Sample(0, 2, rng)
	q.Merge = 4
	if err := q.Validate(0, 2); err == nil {
		t.Error("merge factor accepted without BM/CM")
	}
	q = Sample(TB, 2, rng)
	q.TBDepth = 3
	if err := q.Validate(TB, 2); err == nil {
		t.Error("non-pow2 TB depth accepted")
	}
}

func TestEncodeWidthAndLog2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := Sample(ST|BM|TB|PR, 3, rng)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("EncodeInto accepted a dst of width %d, want only %d", len(ParamFeatureNames)-1, len(ParamFeatureNames))
			}
		}()
		p.EncodeInto(make([]float64, len(ParamFeatureNames)-1))
	}()
	v := make([]float64, len(ParamFeatureNames))
	p.EncodeInto(v)
	if v[0] != log2f(p.BlockX) || v[2] != log2f(p.Merge) {
		t.Error("log2 encoding mismatch")
	}
	base := Params{BlockX: 32, BlockY: 4, Merge: 1, Unroll: 1}
	e := make([]float64, len(ParamFeatureNames))
	base.EncodeInto(e)
	if e[2] != 0 || e[4] != 0 || e[8] != 0 {
		t.Errorf("neutral values must encode to 0: %v", e)
	}
}

// Property: String/Parse round-trips for arbitrary valid bitmasks.
func TestQuickStringParse(t *testing.T) {
	f := func(raw uint8) bool {
		oc := Opt(raw) & (ST | TB | BM | CM | RT | PR)
		if !oc.Valid() {
			return true
		}
		back, err := Parse(oc.String())
		return err == nil && back == oc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sampled params encode to finite values with the fixed width.
func TestQuickEncodeFixedWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	combos := Combinations()
	f := func(i uint8, threeD bool) bool {
		oc := combos[int(i)%len(combos)]
		dims := 2
		if threeD {
			dims = 3
		}
		p := Sample(oc, dims, rng)
		v := make([]float64, len(ParamFeatureNames))
		p.EncodeInto(v)
		for _, x := range v {
			if x < 0 || x > 12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
