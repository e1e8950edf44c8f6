package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

// diffStencils is a small mixed population exercising both dims, star and
// box shapes, and every order the corpus generator emits.
func diffStencils(t *testing.T) []stencil.Stencil {
	t.Helper()
	return []stencil.Stencil{
		stencil.Star(2, 1), stencil.Star(2, 4), stencil.Box(2, 2),
		stencil.Star(3, 1), stencil.Star(3, 3), stencil.Box(3, 2), stencil.Box(3, 4),
	}
}

// TestEvaluatorMatchesReference is the per-run differential: for every
// catalog architecture, every valid OC and a spread of sampled settings,
// the compiled evaluator must reproduce the Reference oracle bit for bit
// — Result fields compared as exact float bits, errors compared by
// sentinel and text — in each state a cell can be in: at its first
// lookup (no memo), while its memo fills, and answering from the memo.
func TestEvaluatorMatchesReference(t *testing.T) {
	m := New()
	ref := NewReference()
	for _, s := range diffStencils(t) {
		w := DefaultWorkload(s)
		samples := distinctSamples(s.Dims, 6, 20260808)
		for _, arch := range gpu.Catalog() {
			ev, err := m.Evaluator(w, arch)
			if err != nil {
				t.Fatalf("%s on %s: compile: %v", s.Name, arch.Name, err)
			}
			before := m.CacheStats()
			// First lookup; then through a fresh CellFn per sample, whose
			// lookups find the cell again and fill its memo; then hits.
			for _, eval := range []EvalFn{
				ev.Eval,
				func(oc opt.Opt, p opt.Params) (Result, error) { return m.CellFn(w, arch)(oc, p) },
				ev.Eval,
			} {
				for _, sm := range samples {
					got, gotErr := eval(sm.oc, sm.p)
					want, wantErr := ref.CellFn(w, arch)(sm.oc, sm.p)
					assertSameOutcome(t, s.Name, arch.Name, sm.oc, got, gotErr, want, wantErr)
				}
			}
			after := m.CacheStats()
			if n := uint64(len(samples)); after.Misses-before.Misses != n || after.Hits-before.Hits != n {
				t.Fatalf("%s on %s: %d samples went through the three states as %+v -> %+v", s.Name, arch.Name, n, before, after)
			}
		}
	}
}

func assertSameOutcome(t *testing.T, sname, aname string, oc opt.Opt, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s %s on %s: error disagreement: evaluator %v, reference %v", sname, oc, aname, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %s on %s: error text %q != %q", sname, oc, aname, gotErr, wantErr)
		}
		wantCrash := errors.Is(wantErr, ErrCrash)
		wantInvalid := errors.Is(wantErr, ErrInvalidConfig)
		if errors.Is(gotErr, ErrCrash) != wantCrash || errors.Is(gotErr, ErrInvalidConfig) != wantInvalid {
			t.Fatalf("%s %s on %s: error sentinel mismatch: %v vs %v", sname, oc, aname, gotErr, wantErr)
		}
		return
	}
	if got != want {
		t.Fatalf("%s %s on %s: result differs:\n evaluator %+v\n reference %+v", sname, oc, aname, got, want)
	}
	if math.Float64bits(got.Time) != math.Float64bits(want.Time) {
		t.Fatalf("%s %s on %s: time bits differ: %x vs %x", sname, oc, aname,
			math.Float64bits(got.Time), math.Float64bits(want.Time))
	}
}

// TestEvaluatorMatchesReferenceOffDefaultWorkloads varies grid extents
// and time steps: the compile key must separate cells that differ only in
// workload geometry.
func TestEvaluatorMatchesReferenceOffDefaultWorkloads(t *testing.T) {
	m := New()
	ref := NewReference()
	arch, err := gpu.ByName("A100")
	if err != nil {
		t.Fatal(err)
	}
	s := stencil.Star(3, 2)
	rng := rand.New(rand.NewSource(99))
	for _, w := range []Workload{
		{S: s, GridX: 256, GridY: 256, GridZ: 256, TimeSteps: 4},
		{S: s, GridX: 768, GridY: 256, GridZ: 128, TimeSteps: 1},
		{S: s, GridX: 512, GridY: 512, GridZ: 512, TimeSteps: 32},
	} {
		for _, oc := range []opt.Opt{0, opt.ST, opt.ST | opt.TB, opt.BM, opt.ST | opt.RT | opt.PR} {
			for k := 0; k < 4; k++ {
				p := opt.Sample(oc, s.Dims, rng)
				got, gotErr := m.CellFn(w, arch)(oc, p)
				want, wantErr := ref.CellFn(w, arch)(oc, p)
				assertSameOutcome(t, s.Name, arch.Name, oc, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestEvaluatorValidationErrors: the compiled path must preserve the
// validation contract and ordering of the Reference oracle — workload
// first, then OC, then params.
func TestEvaluatorValidationErrors(t *testing.T) {
	m := New()
	ref := NewReference()
	arch, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	s := stencil.Star(2, 1)
	good := DefaultWorkload(s)
	badW := good
	badW.TimeSteps = 0
	okP := opt.Params{BlockX: 64, BlockY: 2, Merge: 1, Unroll: 1}

	cases := []struct {
		name string
		w    Workload
		oc   opt.Opt
		p    opt.Params
	}{
		{"bad workload", badW, 0, okP},
		{"bad oc", good, opt.RT, okP},
		{"bad params", good, 0, opt.Params{BlockX: 3, BlockY: 2, Merge: 1, Unroll: 1}},
		{"bad workload and oc", badW, opt.BM | opt.CM, okP},
	}
	for _, c := range cases {
		_, gotErr := m.CellFn(c.w, arch)(c.oc, c.p)
		_, wantErr := ref.CellFn(c.w, arch)(c.oc, c.p)
		if gotErr == nil || wantErr == nil {
			t.Fatalf("%s: expected errors, got evaluator=%v reference=%v", c.name, gotErr, wantErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q != reference %q", c.name, gotErr, wantErr)
		}
	}
}

// TestPackSampleInjective: distinct validated samples must pack to
// distinct keys (the collision-freedom invariant the string runKey
// documented, survived into the packing). Sampled pairs over every OC are
// compared pairwise via a map from packed key to sample identity.
func TestPackSampleInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type sample struct {
		oc opt.Opt
		p  opt.Params
	}
	seen := make(map[uint64]sample)
	for _, dims := range []int{2, 3} {
		for _, oc := range opt.Combinations() {
			for k := 0; k < 200; k++ {
				p := opt.Sample(oc, dims, rng)
				key, ok := packSample(oc, p)
				if !ok {
					t.Fatalf("sampled valid params not packable: %s %+v", oc, p)
				}
				if prev, dup := seen[key]; dup && (prev.oc != oc || prev.p != p) {
					t.Fatalf("pack collision: %s %+v and %s %+v -> %x", prev.oc, prev.p, oc, p, key)
				}
				seen[key] = sample{oc: oc, p: p}
			}
		}
	}
	if len(seen) < 1000 {
		t.Fatalf("sampling produced only %d distinct keys; test too weak", len(seen))
	}
}

// TestPackSampleRejectsNonCanonical: values the packing cannot represent
// are refused (and thus bypass the cache) rather than silently truncated.
func TestPackSampleRejectsNonCanonical(t *testing.T) {
	if _, ok := packSample(0, opt.Params{BlockX: 3}); ok {
		t.Fatal("non-power-of-two BlockX packed")
	}
	if _, ok := packSample(0, opt.Params{BlockX: 64, BlockY: 2, Merge: -5, Unroll: 1}); ok {
		t.Fatal("negative Merge packed")
	}
	if _, ok := packSample(opt.PR|opt.ST, opt.Params{BlockX: 64, BlockY: 2, Merge: 1, Unroll: 1, StreamTile: 32, StreamDim: 2, PrefetchDepth: 7}); ok {
		t.Fatal("out-of-range PrefetchDepth packed")
	}
	// Merge 0 and Merge 1 are distinct cells (their noise keys differ) and
	// must stay distinct after packing.
	a, okA := packSample(0, opt.Params{BlockX: 64, BlockY: 2, Merge: 0, Unroll: 1})
	b, okB := packSample(0, opt.Params{BlockX: 64, BlockY: 2, Merge: 1, Unroll: 1})
	if !okA || !okB || a == b {
		t.Fatalf("Merge 0 vs 1 not separated: %x vs %x (ok %v %v)", a, b, okA, okB)
	}
}

// TestInlineGaussMatchesReference: the inline FNV resume in noiseFactor
// must equal the variadic gauss the reference factor calls.
func TestInlineGaussMatchesReference(t *testing.T) {
	m := New()
	ref := NewReference()
	arch, err := gpu.ByName("2080Ti")
	if err != nil {
		t.Fatal(err)
	}
	s := stencil.Box(3, 3)
	w := DefaultWorkload(s)
	rng := rand.New(rand.NewSource(13))
	ev, err := m.Evaluator(w, arch)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range opt.Combinations() {
		for k := 0; k < 8; k++ {
			p := opt.Sample(oc, s.Dims, rng)
			got, gotErr := ev.Eval(oc, p)
			want, wantErr := ref.CellFn(w, arch)(oc, p)
			assertSameOutcome(t, s.Name, arch.Name, oc, got, gotErr, want, wantErr)
		}
	}
}

// TestAllocGateEvaluator is the zero-allocation contract of the compiled
// per-sample path, enforced by check.sh: pricing a sample on a cell's
// first lookup and answering one from a revisited cell's memo must both
// run the sample loop without a single heap allocation.
func TestAllocGateEvaluator(t *testing.T) {
	arch, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	s := stencil.Star(3, 2)
	w := DefaultWorkload(s)
	rng := rand.New(rand.NewSource(17))

	// A spread of non-crashing samples: sampled settings under BASE and ST
	// on a mid-order star never exceed V100 resources.
	var samples []ocSample
	for _, oc := range []opt.Opt{0, opt.ST, opt.BM, opt.ST | opt.PR} {
		for k := 0; k < 8; k++ {
			samples = append(samples, ocSample{oc: oc, p: opt.Sample(oc, s.Dims, rng)})
		}
	}

	m := New()
	gate := func(label string, ev *CellEvaluator) {
		t.Helper()
		i := 0
		if got := testing.AllocsPerRun(200, func() {
			sm := samples[i%len(samples)]
			i++
			ev.Eval(sm.oc, sm.p)
		}); got != 0 {
			t.Errorf("%s Eval allocates %v allocs/op, want 0", label, got)
		}
	}
	gate("first-lookup", mustEvaluator(t, m, w, arch))
	if st := m.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("first-lookup gate ran against the memo: %+v", st)
	}

	ev := mustEvaluator(t, m, w, arch)
	for _, sm := range samples { // fill the memo
		if _, err := ev.Eval(sm.oc, sm.p); err != nil {
			t.Fatalf("alloc-gate sample crashed (%s %+v): %v", sm.oc, sm.p, err)
		}
	}
	misses := m.CacheStats().Misses
	gate("memo-hit", ev)
	if st := m.CacheStats(); st.Misses != misses || st.Hits == 0 {
		t.Fatalf("memo-hit gate missed: %+v", st)
	}
}

// TestAllocGateCompile bounds a fresh compile, enforced by check.sh: the
// stencil is embedded once against directions and per-arch terms built
// once per process, so a cell costs its evaluator, its pattern key and
// the OC list — not the 316 allocations of one embedding per projection.
func TestAllocGateCompile(t *testing.T) {
	arch, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultWorkload(stencil.Star(3, 2))
	m := New()
	if got := testing.AllocsPerRun(100, func() { m.compile(w, arch) }); got > 20 {
		t.Errorf("compile allocates %v, want at most 20", got)
	}
}

// TestLimitErrorsPinned pins the two hard-limit rejections to the text
// fmt.Errorf("%w: ...") produced before they became typed errors that
// format on demand: byte-equal messages, ErrInvalidConfig / ErrCrash
// reachable through errors.Is, the same text from the oracle and the
// compiled cell, and the memo's hit path handing back the very error the
// miss stored.
func TestLimitErrorsPinned(t *testing.T) {
	arch := cacheArch(t) // V100
	cases := []struct {
		name string
		s    stencil.Stencil
		oc   opt.Opt
		p    opt.Params
		kind error
		text string
	}{
		{"smem overflow", stencil.Box(3, 4), opt.TB,
			opt.Params{BlockX: 32, BlockY: 8, Merge: 1, Unroll: 1, TBDepth: 2},
			ErrInvalidConfig,
			"sim: parameter setting exceeds hardware limits: TB needs 306.0 KiB shared memory, V100 has 96 KiB per SM"},
		{"register crash", stencil.Box(2, 4), opt.TB | opt.BM,
			opt.Params{BlockX: 32, BlockY: 4, Merge: 8, MergeDim: 2, Unroll: 1, TBDepth: 4},
			ErrCrash,
			"sim: kernel crash (intra-SM resource spilling): TB_BM demands 1447 registers/thread on V100 (stencil box2d4r)"},
	}
	for _, c := range cases {
		w := DefaultWorkload(c.s)
		_, refErr := NewReference().CellFn(w, arch)(c.oc, c.p)
		m := New()
		_, firstErr := mustEvaluator(t, m, w, arch).Eval(c.oc, c.p)
		ev := mustEvaluator(t, m, w, arch) // second lookup: memoizing
		_, missErr := ev.Eval(c.oc, c.p)
		_, hitErr := ev.Eval(c.oc, c.p)
		if st := m.CacheStats(); st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("%s: memo saw %+v, want one miss then one hit", c.name, st)
		}
		for i, err := range []error{refErr, firstErr, missErr, hitErr} {
			label := [...]string{"reference", "first lookup", "memo miss", "memo hit"}[i]
			if err == nil || err.Error() != c.text {
				t.Errorf("%s, %s: got %q, want %q", c.name, label, err, c.text)
			}
			if !errors.Is(err, c.kind) || errors.Is(err, ErrCrash) != (c.kind == ErrCrash) {
				t.Errorf("%s, %s: errors.Is misclassifies %v", c.name, label, err)
			}
		}
		if hitErr != missErr {
			t.Errorf("%s: memo hit returned a different error value than the miss stored", c.name)
		}
	}
}
