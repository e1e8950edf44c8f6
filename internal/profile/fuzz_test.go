package profile_test

import (
	"bytes"
	"context"
	"testing"

	"stencilmart/internal/profile"
	"stencilmart/internal/testutil"
)

// validDatasetBytes builds a real collected dataset to seed the fuzzer
// with a structurally correct input.
func validDatasetBytes(t testing.TB) []byte {
	t.Helper()
	p := profile.NewProfiler(2, testutil.CorpusSeed+1)
	corpus := testutil.SmallCorpus(t)
	d, err := p.Collect(context.Background(), corpus[:3], testutil.AllArchs(t)[:1])
	if err != nil {
		t.Fatalf("seed dataset: %v", err)
	}
	return testutil.DatasetJSON(t, d)
}

// FuzzDatasetRoundTrip feeds arbitrary bytes through ReadJSON. Malformed
// data must produce an error — never a panic — and anything that decodes
// must survive a WriteJSON → ReadJSON round trip byte-identically.
func FuzzDatasetRoundTrip(f *testing.F) {
	f.Add(validDatasetBytes(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"stencils":[],"archs":[],"profiles":[],"instances":{}}`))
	f.Add([]byte(`{"stencils":[{"name":"x","dims":2,"points":[0,0,0]}],"archs":["V100"]}`))
	f.Add([]byte(`{"archs":["NoSuchGPU"]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"profiles":[[{"results":[{"oc":999}]}]]}`))
	// Infinite / out-of-range times in a hand-edited dataset must be
	// rejected, not silently accepted as labels: JSON cannot spell +Inf,
	// so a corrupt file carries an overflowing literal (decodes to +Inf
	// in lenient parsers) or an instance time that Validate must refuse.
	f.Add([]byte(`{"stencils":[{"name":"x","dims":2,"points":[0,0,0,1,0,0]}],"archs":["V100"],` +
		`"profiles":[[{"StencilIdx":0,"Arch":"V100","Results":[{"oc":0,"time":1e999,"params":{}}]}]]}`))
	f.Add([]byte(`{"stencils":[{"name":"x","dims":2,"points":[0,0,0,1,0,0]}],"archs":["V100"],` +
		`"profiles":[],"instances":{"stencil":[0],"oc":[0],"arch":[0],"time":[1e999],"params":[0,0,0,0,0,0,0,0,0,0]}}`))
	f.Add([]byte(`{"stencils":[{"name":"x","dims":2,"points":[0,0,0,1,0,0]}],"archs":["V100"],` +
		`"profiles":[],"instances":{"stencil":[0],"oc":[0],"arch":[0],"time":[-1],"params":[0,0,0,0,0,0,0,0,0,0]}}`))
	// Column-level damage: ragged columns, an arch index past the arch
	// list, params not ten per instance, a NaN spelled as a string.
	for _, inst := range []string{
		`{"stencil":[0,0],"oc":[0],"arch":[0],"time":[1],"params":[0,0,0,0,0,0,0,0,0,0]}`,
		`{"stencil":[0],"oc":[0],"arch":[1],"time":[1],"params":[0,0,0,0,0,0,0,0,0,0]}`,
		`{"stencil":[0],"oc":[0],"arch":[0],"time":[1],"params":[0,0,0,0,0,0,0]}`,
		`{"stencil":[0],"oc":[0],"arch":[0],"time":["NaN"],"params":[0,0,0,0,0,0,0,0,0,0]}`,
	} {
		f.Add([]byte(`{"stencils":[{"name":"x","dims":2,"points":[0,0,0,1,0,0]}],"archs":["V100"],"profiles":[],"instances":` + inst + `}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := profile.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		// Accepted datasets must satisfy their own invariants...
		if err := d.Validate(); err != nil {
			t.Fatalf("ReadJSON accepted a dataset its own Validate rejects: %v", err)
		}
		// ...and round-trip losslessly.
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON on accepted dataset: %v", err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		d2, err := profile.ReadJSON(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-read of written dataset: %v", err)
		}
		buf.Reset()
		if err := d2.WriteJSON(&buf); err != nil {
			t.Fatalf("second WriteJSON: %v", err)
		}
		testutil.AssertSameBytes(t, "dataset round trip", first, buf.Bytes())
	})
}
