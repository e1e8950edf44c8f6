package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"stencilmart/internal/stencil"
)

// FuzzStencilFromRequest feeds arbitrary /predict bodies, decoded as the
// handler decodes them, to stencilFromRequest. The checked-in corpus
// (testdata/fuzz) holds the MinInt and MaxInt offsets, order 5 and the
// order-4 corners, duplicate points, dims/dz disagreement, a missing
// dims, 2- and 4-element points, both stencil forms and neither, and
// named stencils, one spelled loosely ("star+2d01r", refused). Whatever the body, the result is an error (the handler
// answers 400) with no stencil, or a stencil that passes Validate with
// every coordinate in [-MaxOrder, MaxOrder]; never a panic.
func FuzzStencilFromRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxRequestBytes {
			t.Skip() // the handler answers 413 before decoding
		}
		var req PredictRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Skip() // a malformed body is a 400 before stencilFromRequest
		}
		st, err := stencilFromRequest(req)
		if err != nil {
			if st.Points != nil {
				t.Fatalf("error %v came with a stencil %+v", err, st)
			}
			return
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("accepted stencil fails Validate: %v", err)
		}
		for _, p := range st.Points {
			for _, c := range []int{p.Dx, p.Dy, p.Dz} {
				if c < -stencil.MaxOrder || c > stencil.MaxOrder {
					t.Fatalf("accepted offset %v lies outside ±%d", p, stencil.MaxOrder)
				}
			}
		}
	})
}
