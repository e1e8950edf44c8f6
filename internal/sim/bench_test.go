package sim

import (
	"math/rand"
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

// benchSamples builds a deterministic sample mix over several OCs, the
// shape of one profiling cell's random search.
func benchSamples(s stencil.Stencil) []struct {
	oc opt.Opt
	p  opt.Params
} {
	rng := rand.New(rand.NewSource(42))
	var out []struct {
		oc opt.Opt
		p  opt.Params
	}
	for _, oc := range []opt.Opt{0, opt.ST, opt.BM, opt.ST | opt.TB, opt.ST | opt.PR} {
		for k := 0; k < 16; k++ {
			out = append(out, struct {
				oc opt.Opt
				p  opt.Params
			}{oc, opt.Sample(oc, s.Dims, rng)})
		}
	}
	return out
}

func benchCell() (Workload, gpu.Arch) {
	archs := gpu.Catalog()
	return DefaultWorkload(stencil.Star(3, 2)), archs[1%len(archs)]
}

// BenchmarkModelRunCold prices fresh samples through the compatibility
// wrapper with the memo cache disabled: evaluator dispatch plus the full
// resource/time/noise arithmetic every call.
func BenchmarkModelRunCold(b *testing.B) {
	w, arch := benchCell()
	m := New()
	m.DisableCache()
	samples := benchSamples(w.S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := samples[i%len(samples)]
		m.Run(w, sm.oc, sm.p, arch)
	}
}

// BenchmarkModelRunWarm re-prices a fixed sample mix with the cache on —
// the steady state of profiling sweeps and equal-budget searches.
func BenchmarkModelRunWarm(b *testing.B) {
	w, arch := benchCell()
	m := New()
	samples := benchSamples(w.S)
	for _, sm := range samples {
		m.Run(w, sm.oc, sm.p, arch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := samples[i%len(samples)]
		m.Run(w, sm.oc, sm.p, arch)
	}
}

// BenchmarkEvaluatorEval is the compiled hot loop itself: a held
// evaluator, cache disabled, full recomputation per call.
func BenchmarkEvaluatorEval(b *testing.B) {
	w, arch := benchCell()
	m := New()
	m.DisableCache()
	ev, err := m.Evaluator(w, arch)
	if err != nil {
		b.Fatal(err)
	}
	samples := benchSamples(w.S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := samples[i%len(samples)]
		ev.Eval(sm.oc, sm.p)
	}
}

// BenchmarkEvaluatorEvalWarm is the held-evaluator loop with the memo
// cache on: the zero-alloc steady state the AllocsPerRun gate enforces.
func BenchmarkEvaluatorEvalWarm(b *testing.B) {
	w, arch := benchCell()
	m := New()
	ev, err := m.Evaluator(w, arch)
	if err != nil {
		b.Fatal(err)
	}
	samples := benchSamples(w.S)
	for _, sm := range samples {
		ev.Eval(sm.oc, sm.p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := samples[i%len(samples)]
		ev.Eval(sm.oc, sm.p)
	}
}

// BenchmarkReferenceRunCold and BenchmarkReferenceRunWarm are the
// pre-rewrite baseline under the same sample mixes — the denominator of
// the PR 10 speedups quoted in EXPERIMENTS.md.
func BenchmarkReferenceRunCold(b *testing.B) {
	w, arch := benchCell()
	ref := NewReference()
	ref.DisableCache()
	samples := benchSamples(w.S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := samples[i%len(samples)]
		ref.Run(w, sm.oc, sm.p, arch)
	}
}

func BenchmarkReferenceRunWarm(b *testing.B) {
	w, arch := benchCell()
	ref := NewReference()
	samples := benchSamples(w.S)
	for _, sm := range samples {
		ref.Run(w, sm.oc, sm.p, arch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := samples[i%len(samples)]
		ref.Run(w, sm.oc, sm.p, arch)
	}
}
