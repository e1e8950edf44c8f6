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
func benchSamples(s stencil.Stencil) []ocSample {
	rng := rand.New(rand.NewSource(42))
	var out []ocSample
	for _, oc := range []opt.Opt{0, opt.ST, opt.BM, opt.ST | opt.TB, opt.ST | opt.PR} {
		for k := 0; k < 16; k++ {
			out = append(out, ocSample{oc, opt.Sample(oc, s.Dims, rng)})
		}
	}
	return out
}

func benchCell() (Workload, gpu.Arch) {
	archs := gpu.Catalog()
	return DefaultWorkload(stencil.Star(3, 2)), archs[1%len(archs)]
}

// BenchmarkModelLookupWarm re-prices a fixed sample mix through a fresh
// CellFn per sample: every call looks the cell up again, so after the
// first it is the cell lookup plus a memo hit — the steady state of a
// repeated request.
func BenchmarkModelLookupWarm(b *testing.B) {
	w, arch := benchCell()
	m := New()
	samples := benchSamples(w.S)
	for range 2 { // first lookup, then the pass that fills the memo
		for _, sm := range samples {
			m.CellFn(w, arch)(sm.oc, sm.p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := samples[i%len(samples)]
		m.CellFn(w, arch)(sm.oc, sm.p)
	}
}

// BenchmarkEvaluatorEval is the compiled hot loop itself: an evaluator
// held from the cell's first lookup, full recomputation per call — what
// collection pays per sample.
func BenchmarkEvaluatorEval(b *testing.B) {
	w, arch := benchCell()
	ev := mustEvaluator(b, New(), w, arch)
	samples := benchSamples(w.S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := samples[i%len(samples)]
		ev.Eval(sm.oc, sm.p)
	}
}

// BenchmarkEvaluatorEvalWarm is the held-evaluator loop on a revisited
// cell whose memo holds every sample: the zero-alloc hit path the
// AllocsPerRun gate enforces.
func BenchmarkEvaluatorEvalWarm(b *testing.B) {
	w, arch := benchCell()
	m := New()
	mustEvaluator(b, m, w, arch)
	ev := mustEvaluator(b, m, w, arch)
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

// BenchmarkReferenceRun is the uncompiled oracle under the same sample
// mix — the denominator of the PR 10 speedups quoted in EXPERIMENTS.md.
func BenchmarkReferenceRun(b *testing.B) {
	w, arch := benchCell()
	ref := NewReference()
	samples := benchSamples(w.S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := samples[i%len(samples)]
		ref.CellFn(w, arch)(sm.oc, sm.p)
	}
}

var compiledSink *CellEvaluator

// BenchmarkCompileCell is what a cell's first lookup pays before its
// first sample: geometry, one embedding of the stencil and 31 dot
// products with cached directions (warm, as they are for all but the
// first cell of a process per architecture).
func BenchmarkCompileCell(b *testing.B) {
	w, arch := benchCell()
	m := New()
	compiledSink = m.compile(w, arch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiledSink = m.compile(w, arch)
	}
}
