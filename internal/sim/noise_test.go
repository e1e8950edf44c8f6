package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

func TestGaussDeterministicAndDistributed(t *testing.T) {
	if gauss("a", byte(1), "b", "c") != gauss("a", byte(1), "b", "c") {
		t.Error("gauss not deterministic")
	}
	if gauss("a", byte(1), "b", "c") == gauss("a", byte(2), "b", "c") {
		t.Error("gauss ignores key component")
	}
	// Population moments over many keys should be ~N(0,1).
	var m, m2 float64
	const n = 4000
	for i := 0; i < n; i++ {
		z := gauss("key", byte(i%256), string(rune(i/256)), "")
		m += z
		m2 += z * z
	}
	mean := m / n
	std := math.Sqrt(m2/n - mean*mean)
	if math.Abs(mean) > 0.07 || math.Abs(std-1) > 0.07 {
		t.Errorf("gauss moments mean=%.3f std=%.3f", mean, std)
	}
}

func TestProjectionStandardized(t *testing.T) {
	corpus, err := gen.MixedCorpus(150, 150, stencil.MaxOrder, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"arch:P100", "arch:A100", "oc:\x07", "oc:\x1f"} {
		var m, m2 float64
		for _, s := range corpus {
			z := projection(s, key)
			m += z
			m2 += z * z
		}
		n := float64(len(corpus))
		mean := m / n
		std := math.Sqrt(m2/n - mean*mean)
		if math.Abs(mean) > 0.35 || std < 0.6 || std > 1.6 {
			t.Errorf("projection %q: mean=%.3f std=%.3f outside calibrated band", key, mean, std)
		}
	}
}

func TestProjectionSmoothInFeatures(t *testing.T) {
	// Similar stencils must receive similar affinities: star2d3r is
	// geometrically closer to star2d4r than to box3d4r.
	a := projection(stencil.Star(2, 3), "arch:V100")
	b := projection(stencil.Star(2, 4), "arch:V100")
	c := projection(stencil.Box(3, 4), "arch:V100")
	if math.Abs(a-b) >= math.Abs(a-c) {
		t.Errorf("projection not smooth: |star3-star4|=%.3f >= |star3-box3d4|=%.3f",
			math.Abs(a-b), math.Abs(a-c))
	}
}

func TestNoiseFactorDeterministic(t *testing.T) {
	n := defaultNoise()
	s := stencil.Cross(2, 2)
	arch, _ := gpu.ByName("P100")
	p := opt.Params{BlockX: 32, BlockY: 4, Merge: 1, Unroll: 1}
	f1 := n.factor(s, 0, p, arch)
	f2 := n.factor(s, 0, p, arch)
	if f1 != f2 {
		t.Errorf("noise factor nondeterministic: %g vs %g", f1, f2)
	}
	if f1 <= 0 {
		t.Errorf("noise factor %g", f1)
	}
}

// Property: the noise factor stays within lognormal plausibility for any
// configuration (no blowups from the projection terms).
func TestQuickNoiseFactorBounded(t *testing.T) {
	n := defaultNoise()
	g, err := gen.New(gen.Options{Dims: 3}, 13)
	if err != nil {
		t.Fatal(err)
	}
	combos := opt.Combinations()
	archs := gpu.Catalog()
	f := func(oi, ai uint8) bool {
		s := g.Next()
		oc := combos[int(oi)%len(combos)]
		arch := archs[int(ai)%len(archs)]
		fac := n.factor(s, oc, opt.Params{BlockX: 64, BlockY: 2, Merge: 1, Unroll: 1}, arch)
		// 6 sigma of the combined ~0.21 lognormal is ~3.5x.
		return fac > 0.2 && fac < 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The per-call projection the cached directions replaced, kept verbatim
// as the oracle they are proved against: phi as a slice with two
// PointsAtOrder copies, eight gauss weights hashed per call, and each
// key's statistics taken over the reference corpus's stencils.
func oraclePhi(s stencil.Stencil) []float64 {
	n := float64(s.NumPoints())
	r := float64(s.Order())
	var sumD, maxD float64
	for _, p := range s.Points {
		d := p.Euclidean()
		sumD += d
		if d > maxD {
			maxD = d
		}
	}
	dims3 := -1.0
	if s.Dims == 3 {
		dims3 = 1
	}
	lines := float64(stencil.LineCount(s))
	shell := float64(len(s.PointsAtOrder(int(r)))) / n
	first := float64(len(s.PointsAtOrder(1))) / n
	return []float64{
		(r - 2.5) / 1.1,
		(math.Cbrt(n) - 2.6) / 1.0,
		(sumD/n - 2.0) / 0.9,
		(maxD - 3.3) / 1.5,
		dims3,
		(math.Log2(lines) - 2.5) / 1.5,
		(first - 0.45) / 0.25,
		(shell - 0.30) / 0.20,
	}
}

func oracleRawProjection(s stencil.Stencil, key string) float64 {
	f := oraclePhi(s)
	var z, norm float64
	for i := range f {
		w := gauss(key, byte(i), "", "")
		z += w * f[i]
		norm += w * w
	}
	return z / math.Sqrt(norm)
}

var (
	oracleCorpus = sync.OnceValue(func() []stencil.Stencil {
		corpus, err := gen.MixedCorpus(refCount2, refCount3, stencil.MaxOrder, refSeed)
		if err != nil {
			panic("sim: reference corpus generation failed: " + err.Error())
		}
		return corpus
	})
	oracleKeyStats sync.Map // key -> [2]float64{mean, std}
)

func oracleProjection(s stencil.Stencil, key string) float64 {
	if v, ok := oracleKeyStats.Load(key); ok {
		st := v.([2]float64)
		return (oracleRawProjection(s, key) - st[0]) / st[1]
	}
	corpus := oracleCorpus()
	var m, m2 float64
	for _, rs := range corpus {
		z := oracleRawProjection(rs, key)
		m += z
		m2 += z * z
	}
	n := float64(len(corpus))
	mean := m / n
	std := math.Sqrt(m2/n - mean*mean)
	if std < 1e-9 {
		std = 1
	}
	oracleKeyStats.Store(key, [2]float64{mean, std})
	return (oracleRawProjection(s, key) - mean) / std
}

// TestDirectionsMatchOracle: for every key a cell projects onto — one per
// catalog GPU, one per OC — the embedding, the cached direction and the
// projection wrapper give the oracle's bits on the 400 reference stencils
// and the representative suite.
func TestDirectionsMatchOracle(t *testing.T) {
	var keys []string
	for _, a := range gpu.Catalog() {
		keys = append(keys, "arch:"+a.Name)
	}
	for _, oc := range opt.Combinations() {
		keys = append(keys, "oc:"+string(byte(oc)))
	}
	if len(keys) != 34 {
		t.Fatalf("%d projection keys, want 4 GPUs + 30 OCs", len(keys))
	}
	stencils := slices.Concat(oracleCorpus(), stencil.RepresentativeAll())
	for _, s := range stencils {
		f, want := phi(s), oraclePhi(s)
		for i := range f {
			if math.Float64bits(f[i]) != math.Float64bits(want[i]) {
				t.Fatalf("phi(%s)[%d] = %v, oracle %v", s.Name, i, f[i], want[i])
			}
		}
	}
	for _, key := range keys {
		d := directionOf(key)
		for _, s := range stencils {
			f := phi(s)
			want := math.Float64bits(oracleProjection(s, key))
			if got := math.Float64bits(d.project(&f)); got != want {
				t.Fatalf("%q on %s: direction %v, oracle %v", key, s.Name,
					math.Float64frombits(got), math.Float64frombits(want))
			}
			if got := math.Float64bits(projection(s, key)); got != want {
				t.Fatalf("%q on %s: projection %v, oracle %v", key, s.Name,
					math.Float64frombits(got), math.Float64frombits(want))
			}
		}
	}
}

// assertOracleTerms checks a compiled cell's three noise constants
// against the per-call formulas, bit for bit.
func assertOracleTerms(t *testing.T, e *CellEvaluator, n noiseConfig, s stencil.Stencil, arch gpu.Arch) {
	t.Helper()
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s on %s, %s: compiled %v, oracle %v", what, s.Name, arch.Name, got, want)
		}
	}
	same("archTerm", e.archTerm, n.StencilArch*oracleProjection(s, "arch:"+arch.Name))
	for _, oc := range opt.Combinations() {
		ocb := byte(oc)
		same("ocTerm["+oc.String()+"]", e.ocTerm[oc], n.StencilOC*oracleProjection(s, "oc:"+string(ocb)))
		same("ocArchTerm["+oc.String()+"]", e.ocArchTerm[oc], n.OCArch*gauss("", ocb, "", arch.Name))
	}
}

func TestCompiledNoiseTermsMatchOracle(t *testing.T) {
	n := noiseConfig{Measurement: 0.05, StencilArch: 0.3, StencilOC: 0.11, OCArch: 0.07}
	for _, arch := range gpu.Catalog() {
		for _, s := range stencil.RepresentativeAll() {
			for _, m := range []*Model{New(), NewWithNoise(n)} {
				assertOracleTerms(t, m.compile(DefaultWorkload(s), arch), m.noise, s, arch)
			}
		}
	}
}

var raceRound atomic.Int64

// TestDirectionFirstUseRace: eight goroutines at GOMAXPROCS 4 race on the
// first use of a projection key and of an architecture name no cell has
// compiled against; every result carries the oracle's bits. Fresh names
// per run keep it a first use under -count.
func TestDirectionFirstUseRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	round := raceRound.Add(1)
	key := fmt.Sprintf("race:%d", round)
	arch := gpu.Catalog()[0]
	arch.Name = fmt.Sprintf("race-%d", round)
	w := DefaultWorkload(stencil.Box(3, 2))

	const racers = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		proj  [racers]float64
		cells [racers]*CellEvaluator
	)
	start.Add(1)
	for i := range racers {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			if i%2 == 0 {
				proj[i] = projection(w.S, key)
				cells[i] = New().compile(w, arch)
			} else {
				cells[i] = New().compile(w, arch)
				proj[i] = projection(w.S, key)
			}
		}()
	}
	start.Done()
	done.Wait()
	want := oracleProjection(w.S, key)
	for i := range racers {
		if math.Float64bits(proj[i]) != math.Float64bits(want) {
			t.Errorf("racer %d: projection %v, oracle %v", i, proj[i], want)
		}
		assertOracleTerms(t, cells[i], defaultNoise(), w.S, arch)
	}
}
