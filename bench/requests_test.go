package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"stencilmart/internal/serve"
	"stencilmart/internal/stencil"
)

func TestDistinctRequestsAreDeterministicAndNeverRepeat(t *testing.T) {
	const pairs = 2000
	a, err := distinctRequests(42, pairs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := distinctRequests(42, pairs)
	if err != nil {
		t.Fatal(err)
	}
	other, err := distinctRequests(43, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != pairs {
		t.Fatalf("%d requests, want %d", len(a), pairs)
	}
	same := 0
	seen := map[string]bool{}
	dims := map[int]int{}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two draws of seed 42", i)
		}
		if bytes.Equal(a[i].body, other[i].body) {
			same++
		}
		// The key sim sees: the access pattern and the GPU, not the name.
		s := a[i].direct.Stencil
		key := fmt.Sprint(a[i].direct.GPU, s.Dims, s.Points)
		if seen[key] {
			t.Fatalf("request %d repeats a (pattern, GPU) pair", i)
		}
		seen[key] = true
		dims[s.Dims]++
		if s.Order() > stencil.MaxOrder {
			t.Fatalf("request %d has order %d", i, s.Order())
		}
	}
	if same > 0 {
		t.Errorf("%d of %d requests are byte-identical under seeds 42 and 43", same, pairs)
	}
	if dims[2] == 0 || dims[3] == 0 || dims[2]+dims[3] != pairs {
		t.Errorf("dimensionalities drawn: %v", dims)
	}
}

// The body is what serve decodes: it must be the PredictRequest the
// direct call's stencil came from.
func TestRawBodyIsThePredictRequestOfItsStencil(t *testing.T) {
	reqs, err := distinctRequests(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range reqs {
		var pr serve.PredictRequest
		dec := json.NewDecoder(bytes.NewReader(q.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&pr); err != nil {
			t.Fatalf("%s: %v", q.body, err)
		}
		pts := make([]stencil.Point, len(pr.Points))
		for i, p := range pr.Points {
			pts[i] = stencil.Point{Dx: p[0], Dy: p[1], Dz: p[2]}
		}
		s, err := stencil.New(pr.Name, pr.Dims, pts)
		if err != nil {
			t.Fatal(err)
		}
		want := q.direct.Stencil
		if pr.GPU != q.direct.GPU || s.Name != want.Name || s.Dims != want.Dims || fmt.Sprint(s.Points) != fmt.Sprint(want.Points) {
			t.Fatalf("body %s decodes to %v on %s, direct call asks %v on %s", q.body, s, pr.GPU, want, q.direct.GPU)
		}
	}
}

func TestHotRequestsAreSixShapesOnEveryGPU(t *testing.T) {
	hot, err := hotRequests()
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != 24 {
		t.Fatalf("%d named bodies, want 24", len(hot))
	}
	for _, q := range hot {
		var pr serve.PredictRequest
		if err := json.Unmarshal(q.body, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Stencil != q.direct.Stencil.Name || pr.GPU != q.direct.GPU {
			t.Fatalf("body %s vs direct %s on %s", q.body, q.direct.Stencil.Name, q.direct.GPU)
		}
	}
}
