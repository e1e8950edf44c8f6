package persist

import (
	"encoding/json"
	"math"
	"testing"
)

// TestColumnsRoundTripBitExact: a column marshals as a plain JSON array
// and reads back to the same bits, for the floats a lossy codec would
// get wrong.
func TestColumnsRoundTripBitExact(t *testing.T) {
	type cols struct {
		F Floats `json:"f"`
		I Ints   `json:"i"`
	}
	in := cols{
		F: Floats{0, math.Copysign(0, -1), 0.1, 1.0 / 3, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e21, 1e-7, 123456789.123456789, 2.2250738585072014e-308},
		I: Ints{0, -1, 1, math.MaxInt64, math.MinInt64, 1024},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var plain struct {
		F []float64 `json:"f"`
		I []int     `json:"i"`
	}
	if err := json.Unmarshal(blob, &plain); err != nil {
		t.Fatalf("columns are not plain JSON arrays: %v", err)
	}
	var out cols
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.F) != len(in.F) || len(out.I) != len(in.I) {
		t.Fatalf("round trip lengths %d/%d, want %d/%d", len(out.F), len(out.I), len(in.F), len(in.I))
	}
	for i := range in.F {
		if math.Float64bits(out.F[i]) != math.Float64bits(in.F[i]) || math.Float64bits(plain.F[i]) != math.Float64bits(in.F[i]) {
			t.Errorf("float %d: %v read back as %v (encoding/json: %v)", i, in.F[i], out.F[i], plain.F[i])
		}
	}
	for i := range in.I {
		if out.I[i] != in.I[i] {
			t.Errorf("int %d: %d read back as %d", i, in.I[i], out.I[i])
		}
	}
	for _, empty := range []string{`{"f":[],"i":[]}`, `{"f":null,"i":null}`, `{"f": [ ] }`, `{}`} {
		var e cols
		if err := json.Unmarshal([]byte(empty), &e); err != nil || len(e.F) != 0 || len(e.I) != 0 {
			t.Errorf("%s read as %+v, %v; want empty columns", empty, e, err)
		}
	}
	var spaced cols
	if err := json.Unmarshal([]byte(`{"f":[ 1.5 ,	-2e3 ],"i":[ 7 , -8 ]}`), &spaced); err != nil ||
		len(spaced.F) != 2 || spaced.F[1] != -2000 || len(spaced.I) != 2 || spaced.I[1] != -8 {
		t.Errorf("whitespace-separated columns read as %+v, %v", spaced, err)
	}
}

// TestColumnsRejectNonNumbers: only flat arrays of finite numbers (whole
// ones for Ints) decode, through encoding/json and when called directly
// on bytes nothing validated first.
func TestColumnsRejectNonNumbers(t *testing.T) {
	for _, bad := range []string{
		`"1,2"`, `{"a":1}`, `7`, `["NaN"]`, `["1"]`, `[1,"Inf"]`, `[null]`, `[true]`, `[[1,2],[3]]`, `[1,[2]]`, `[{"a":1}]`,
		`[1e999]`, `[-1e999]`, `[1,]`, `[,1]`, `[1,,2]`, `[NaN]`, `[Inf]`, `[-Infinity]`, `[`, `]`, `[1`, ``, `[1 2]`,
	} {
		var f Floats
		if err := f.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("Floats accepted %s as %v", bad, f)
		}
		var i Ints
		if err := i.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("Ints accepted %s as %v", bad, i)
		}
		if json.Valid([]byte(bad)) {
			if err := json.Unmarshal([]byte(bad), &f); err == nil {
				t.Errorf("json.Unmarshal into Floats accepted %s", bad)
			}
		}
	}
	for _, bad := range []string{`[1.5]`, `[1e3]`, `[9223372036854775808]`, `[1.0]`} {
		var i Ints
		if err := i.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("Ints accepted %s as %v", bad, i)
		}
	}
}

// TestColumnDecodeAllocGate: decoding allocates the column and nothing
// per element.
func TestColumnDecodeAllocGate(t *testing.T) {
	in := make(Floats, 4096)
	ints := make(Ints, 4096)
	for i := range in {
		in[i] = float64(i) * 1.0000001e-3
		ints[i] = i * 37
	}
	fb, _ := json.Marshal(in)
	ib, _ := json.Marshal(ints)
	var f Floats
	var n Ints
	if a := testing.AllocsPerRun(10, func() { _ = f.UnmarshalJSON(fb) }); a > 1 {
		t.Errorf("Floats decode: %v allocs for %d elements, want 1", a, len(in))
	}
	if a := testing.AllocsPerRun(10, func() { _ = n.UnmarshalJSON(ib) }); a > 1 {
		t.Errorf("Ints decode: %v allocs for %d elements, want 1", a, len(ints))
	}
}
