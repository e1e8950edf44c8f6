package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

func v100(t *testing.T) gpu.Arch {
	t.Helper()
	a, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func baseParams() opt.Params {
	return opt.Params{BlockX: 64, BlockY: 4, Merge: 1, Unroll: 1}
}

func stParams() opt.Params {
	return opt.Params{BlockX: 64, BlockY: 4, Merge: 1, Unroll: 2,
		StreamTile: 64, StreamDim: 2, UseSmem: true}
}

func TestDefaultWorkloadSizes(t *testing.T) {
	w2 := DefaultWorkload(stencil.Star(2, 1))
	if w2.GridX != 8192 || w2.GridY != 8192 || w2.GridZ != 1 {
		t.Errorf("2-D workload grid %dx%dx%d", w2.GridX, w2.GridY, w2.GridZ)
	}
	w3 := DefaultWorkload(stencil.Star(3, 1))
	if w3.GridX != 512 || w3.GridY != 512 || w3.GridZ != 512 {
		t.Errorf("3-D workload grid %dx%dx%d", w3.GridX, w3.GridY, w3.GridZ)
	}
	if w3.Points() != 512*512*512 {
		t.Errorf("3-D points = %g", w3.Points())
	}
}

func TestRunDeterministic(t *testing.T) {
	m := New()
	w := DefaultWorkload(stencil.Box(2, 2))
	a, err := m.CellFn(w, v100(t))(opt.ST, stParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CellFn(w, v100(t))(opt.ST, stParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Errorf("nondeterministic: %g vs %g", a.Time, b.Time)
	}
	if a.Time <= 0 {
		t.Errorf("non-positive time %g", a.Time)
	}
}

func TestNoiseKeyedByPatternNotName(t *testing.T) {
	m := New()
	s1 := stencil.Star(2, 1)
	s2 := stencil.MustNew("renamed", 2, s1.Points)
	r1, err := m.CellFn(DefaultWorkload(s1), v100(t))(0, baseParams())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.CellFn(DefaultWorkload(s2), v100(t))(0, baseParams())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Errorf("identical patterns timed differently: %g vs %g", r1.Time, r2.Time)
	}
}

func TestBreakdownPositive(t *testing.T) {
	m := New()
	r, err := m.CellFn(DefaultWorkload(stencil.Star(3, 2)), v100(t))(opt.ST|opt.PR,
		opt.Params{BlockX: 64, BlockY: 4, Merge: 1, Unroll: 1, StreamTile: 64,
			StreamDim: 3, UseSmem: true, PrefetchDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Compute <= 0 || r.Memory <= 0 || r.Launch <= 0 {
		t.Errorf("breakdown %+v has non-positive core terms", r)
	}
	if r.Occupancy <= 0 || r.Occupancy > 1 {
		t.Errorf("occupancy %g outside (0,1]", r.Occupancy)
	}
	if r.Sync < 0 {
		t.Errorf("negative sync %g", r.Sync)
	}
}

// TestStreamingBeatsNaiveHighOrder3D encodes the paper's headline
// mechanism: for high-order 3-D stencils, streaming with shared memory
// dramatically reduces memory traffic versus the naive kernel.
func TestStreamingBeatsNaiveHighOrder3D(t *testing.T) {
	m := New()
	w := DefaultWorkload(stencil.Box(3, 3))
	naive, err := m.CellFn(w, v100(t))(0, baseParams())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.CellFn(w, v100(t))(opt.ST, opt.Params{BlockX: 64, BlockY: 4, Merge: 1,
		Unroll: 1, StreamTile: 64, StreamDim: 3, UseSmem: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Time >= naive.Time {
		t.Errorf("ST (%.3gs) not faster than naive (%.3gs) for box3d3r", st.Time, naive.Time)
	}
	if naive.Time/st.Time < 2 {
		t.Errorf("ST speedup only %.2fx for box3d3r; model too flat", naive.Time/st.Time)
	}
}

// bestOf prices every setting on one cell and returns the fastest run,
// or the last error when none runs (the tuner package's search, over a
// given list of settings).
func bestOf(m *Model, w Workload, oc opt.Opt, settings []opt.Params, arch gpu.Arch) (Result, error) {
	var (
		best    Result
		found   bool
		lastErr = errors.New("no settings")
	)
	eval := m.CellFn(w, arch)
	for _, p := range settings {
		r, err := eval(oc, p)
		if err != nil {
			lastErr = err
			continue
		}
		if !found || r.Time < best.Time {
			best, found = r, true
		}
	}
	if !found {
		return Result{}, lastErr
	}
	return best, nil
}

// TestTBWithoutSTCrashesHighOrder3D encodes Sec. III-A: temporal blocking
// fails for 3-D order-4 stencils without streaming (V100-class smem).
func TestTBWithoutSTCrashesHighOrder3D(t *testing.T) {
	m := New()
	w := DefaultWorkload(stencil.Star(3, 4))
	rng := rand.New(rand.NewSource(1))
	var settings []opt.Params
	for i := 0; i < 64; i++ {
		settings = append(settings, opt.Sample(opt.TB, 3, rng))
	}
	_, err := bestOf(m, w, opt.TB, settings, v100(t))
	if err == nil {
		t.Fatal("TB without ST succeeded for star3d4r on V100")
	}
	if !errors.Is(err, ErrInvalidConfig) && !errors.Is(err, ErrCrash) {
		t.Errorf("unexpected error type: %v", err)
	}
	// With streaming enabled the same stencil must run.
	var stSettings []opt.Params
	for i := 0; i < 64; i++ {
		stSettings = append(stSettings, opt.Sample(opt.ST|opt.TB, 3, rng))
	}
	if _, err := bestOf(m, w, opt.ST|opt.TB, stSettings, v100(t)); err != nil {
		t.Errorf("ST_TB failed for star3d4r: %v", err)
	}
}

func TestBlockMergingXBreaksCoalescing(t *testing.T) {
	m := New()
	w := DefaultWorkload(stencil.Star(2, 1))
	px := opt.Params{BlockX: 64, BlockY: 4, Merge: 4, MergeDim: 1, Unroll: 1}
	py := opt.Params{BlockX: 64, BlockY: 4, Merge: 4, MergeDim: 2, Unroll: 1}
	rx, err := m.CellFn(w, v100(t))(opt.BM, px)
	if err != nil {
		t.Fatal(err)
	}
	ry, err := m.CellFn(w, v100(t))(opt.BM, py)
	if err != nil {
		t.Fatal(err)
	}
	if rx.Time <= ry.Time {
		t.Errorf("BM along x (%.3g) not slower than along y (%.3g)", rx.Time, ry.Time)
	}
}

func TestRetimingRelievesRegisterPressure(t *testing.T) {
	w := DefaultWorkload(stencil.Box(3, 4))
	p := stParams()
	p.StreamDim = 3
	r := float64(w.S.Order())
	arch := v100(t)
	without := resourceUsage(&w, opt.ST, &p, &arch, r)
	with := resourceUsage(&w, opt.ST|opt.RT, &p, &arch, r)
	if with.regs >= without.regs {
		t.Errorf("RT regs %.1f >= plain ST regs %.1f", with.regs, without.regs)
	}
}

func TestInvalidInputsRejected(t *testing.T) {
	m := New()
	w := DefaultWorkload(stencil.Star(2, 1))
	if _, err := m.CellFn(w, v100(t))(opt.RT, baseParams()); err == nil {
		t.Error("invalid OC accepted")
	}
	if _, err := m.CellFn(w, v100(t))(opt.ST, baseParams()); err == nil {
		t.Error("params inconsistent with OC accepted")
	}
	bad := w
	bad.TimeSteps = 0
	if _, err := m.CellFn(bad, v100(t))(0, baseParams()); err == nil {
		t.Error("zero time steps accepted")
	}
	bad2 := w
	bad2.GridZ = 4
	if _, err := m.CellFn(bad2, v100(t))(0, baseParams()); err == nil {
		t.Error("2-D stencil with 3-D grid accepted")
	}
}

func TestLineCounts(t *testing.T) {
	if got := stencil.LineCount(stencil.Star(2, 1)); got != 3 {
		t.Errorf("lineCount(star2d1r) = %d, want 3", got)
	}
	if got := stencil.LineCount(stencil.Box(2, 4)); got != 9 {
		t.Errorf("lineCount(box2d4r) = %d, want 9", got)
	}
	if got := stencil.LineCount(stencil.Box(3, 4)); got != 81 {
		t.Errorf("lineCount(box3d4r) = %d, want 81", got)
	}
	if got := stencil.PlaneLineCount(stencil.Box(3, 4), 3); got != 9 {
		t.Errorf("planeLineCount(box3d4r, z) = %d, want 9", got)
	}
	if got := stencil.PlaneLineCount(stencil.Star(3, 2), 3); got != 5 {
		t.Errorf("planeLineCount(star3d2r, z) = %d, want 5", got)
	}
}

// TestGapGrowsWithOrder checks Fig. 1's trend: the headroom over the
// unoptimized kernel grows with stencil order for a fixed shape. (The
// raw best/worst gap is confounded at high orders because the worst OCs
// crash there and drop out, as in the paper.)
func TestGapGrowsWithOrder(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(3))
	gap := func(s stencil.Stencil) float64 {
		w := DefaultWorkload(s)
		naive, err := m.CellFn(w, v100(t))(0, baseParams())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		best := math.Inf(1)
		for _, oc := range opt.Combinations() {
			var settings []opt.Params
			for i := 0; i < 24; i++ {
				settings = append(settings, opt.Sample(oc, s.Dims, rng))
			}
			r, err := bestOf(m, w, oc, settings, v100(t))
			if err == nil && r.Time < best {
				best = r.Time
			}
		}
		return naive.Time / best
	}
	g1 := gap(stencil.Box(3, 1))
	g4 := gap(stencil.Box(3, 4))
	if g4 <= g1 {
		t.Errorf("naive/best gap(box3d4r)=%.2f not larger than gap(box3d1r)=%.2f", g4, g1)
	}
}

// Property: any sampled valid configuration either errors or yields a
// strictly positive, finite time with a sane breakdown.
func TestQuickRunSane(t *testing.T) {
	m := New()
	archs := gpu.Catalog()
	combos := opt.Combinations()
	rng := rand.New(rand.NewSource(11))
	shapes := append(stencil.Representative(2), stencil.Representative(3)...)
	f := func(si, oi, ai uint8) bool {
		s := shapes[int(si)%len(shapes)]
		oc := combos[int(oi)%len(combos)]
		arch := archs[int(ai)%len(archs)]
		p := opt.Sample(oc, s.Dims, rng)
		r, err := m.CellFn(DefaultWorkload(s), arch)(oc, p)
		if err != nil {
			return errors.Is(err, ErrCrash) || errors.Is(err, ErrInvalidConfig)
		}
		return r.Time > 0 && !math.IsInf(r.Time, 0) && !math.IsNaN(r.Time) &&
			r.Occupancy > 0 && r.Occupancy <= 1 &&
			r.Compute > 0 && r.Memory > 0 && r.Sync >= 0 && r.Launch > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
