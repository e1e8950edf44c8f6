package main

import (
	"fmt"
	"strconv"

	"stencilmart/internal/core"
	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/stencil"
)

// hotShapes are the six classic shapes the hot stream cycles on every
// catalog GPU (24 bodies): the set loadgen has always used, so hot numbers
// stay comparable with BENCH_serve.json's trajectory.
var hotShapes = []string{"star2d1r", "star2d2r", "box2d1r", "star3d1r", "star3d2r", "box3d1r"}

// request is one /predict call: the body the server receives and the same
// question in the form the direct core call takes, so every answer can be
// checked against a second framework.
type request struct {
	body   []byte
	direct core.ServeRequest
}

// hotRequests builds the named bodies, shapes x catalog GPUs.
func hotRequests() ([]request, error) {
	var out []request
	for _, name := range hotShapes {
		s, err := stencil.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, arch := range gpu.Catalog() {
			body := fmt.Sprintf(`{"stencil":%q,"gpu":%q}`, name, arch.Name)
			out = append(out, request{body: []byte(body), direct: core.ServeRequest{GPU: arch.Name, Stencil: s}})
		}
	}
	return out, nil
}

// distinctRequests draws pairs unique (stencil, GPU) requests from the
// paper's generator: 2-D and 3-D interleaved, order <= stencil.MaxOrder,
// deduplicated by access pattern — sim keys ignore names, so a renamed
// copy of a pattern would hit the memo and the stream would quietly stop
// being distinct. Each pattern is used once per catalog GPU, a quarter of
// the pool apart: a (pattern, GPU) pair is its own sim cell, and a run
// that consumes less than a quarter of the pool (the sizing rule) never
// sees a pattern twice at all.
func distinctRequests(seed int64, pairs int) ([]request, error) {
	catalog := gpu.Catalog()
	patterns := (pairs + len(catalog) - 1) / len(catalog)
	gens := make([]*gen.Generator, 2)
	for i, dims := range []int{2, 3} {
		g, err := gen.New(gen.Options{Dims: dims, MaxOrder: stencil.MaxOrder}, seed*2+int64(i))
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	seen := make(map[string]bool, patterns)
	drawn := make([]stencil.Stencil, 0, patterns)
	var key []byte
	for attempts := 0; len(drawn) < patterns; attempts++ {
		if attempts > 20*patterns {
			return nil, fmt.Errorf("bench: generator yielded only %d unique patterns of %d", len(drawn), patterns)
		}
		s := gens[len(drawn)%2].Next()
		key = append(key[:0], byte(s.Dims))
		for _, p := range s.Points {
			key = append(key, byte(p.Dx), byte(p.Dy), byte(p.Dz))
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		drawn = append(drawn, s)
	}
	out := make([]request, 0, pairs)
	for k := 0; k < pairs; k++ {
		s := drawn[k%patterns]
		arch := catalog[(k/patterns+k%patterns)%len(catalog)]
		// The name is part of the request (it seeds the tuner), so it
		// carries the seed and the slot: two runs never share one.
		named, err := stencil.New(fmt.Sprintf("g%d-%d", seed, k), s.Dims, s.Points)
		if err != nil {
			return nil, err
		}
		out = append(out, request{body: rawBody(named, arch.Name), direct: core.ServeRequest{GPU: arch.Name, Stencil: named}})
	}
	return out, nil
}

// rawBody spells a stencil as a raw-offset /predict body.
func rawBody(s stencil.Stencil, gpuName string) []byte {
	b := make([]byte, 0, 64+12*len(s.Points))
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, s.Name)
	b = append(b, `,"dims":`...)
	b = strconv.AppendInt(b, int64(s.Dims), 10)
	b = append(b, `,"points":[`...)
	for i, p := range s.Points {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p.Dx), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.Dy), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.Dz), 10)
		b = append(b, ']')
	}
	b = append(b, `],"gpu":`...)
	b = strconv.AppendQuote(b, gpuName)
	b = append(b, '}')
	return b
}
