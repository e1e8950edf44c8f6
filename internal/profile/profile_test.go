package profile

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	corpus, err := gen.MixedCorpus(6, 4, stencil.MaxOrder, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfiler(8, 42)
	archs := gpu.Catalog()[:2]
	d, err := p.Collect(context.Background(), corpus, archs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProfileOne(t *testing.T) {
	p := NewProfiler(6, 1)
	arch, _ := gpu.ByName("V100")
	prof, inst, err := p.ProfileOne(context.Background(), 0, stencil.Star(2, 1), arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Results) != opt.NumCombinations {
		t.Fatalf("results per OC = %d, want %d", len(prof.Results), opt.NumCombinations)
	}
	if prof.BestTime <= 0 || !prof.BestOC.Valid() {
		t.Errorf("bad best: %v %g", prof.BestOC, prof.BestTime)
	}
	if len(inst) == 0 {
		t.Fatal("no instances recorded")
	}
	// Best time is the minimum over non-crashed OC results.
	for _, r := range prof.Results {
		if !r.Crashed && r.Time < prof.BestTime {
			t.Errorf("OC %s beat recorded best (%g < %g)", r.OC, r.Time, prof.BestTime)
		}
		if r.Crashed && !math.IsNaN(r.Time) {
			t.Errorf("crashed OC %s has numeric time", r.OC)
		}
	}
	// Instances only contain successful runs.
	for _, in := range inst {
		if in.Time <= 0 || in.Arch != "V100" {
			t.Errorf("bad instance %+v", in)
		}
	}
}

func TestProfileDeterministicAcrossWorkers(t *testing.T) {
	corpus, err := gen.MixedCorpus(4, 2, stencil.MaxOrder, 3)
	if err != nil {
		t.Fatal(err)
	}
	archs := gpu.Catalog()[:2]
	p1 := NewProfiler(5, 9)
	p1.Workers = 1
	d1, err := p1.Collect(context.Background(), corpus, archs)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewProfiler(5, 9)
	p2.Workers = 8
	d2, err := p2.Collect(context.Background(), corpus, archs)
	if err != nil {
		t.Fatal(err)
	}
	for ai := range d1.Profiles {
		for si := range d1.Profiles[ai] {
			a, b := d1.Profiles[ai][si], d2.Profiles[ai][si]
			if a.BestOC != b.BestOC || a.BestTime != b.BestTime {
				t.Fatalf("worker count changed profile [%d][%d]: %v/%g vs %v/%g",
					ai, si, a.BestOC, a.BestTime, b.BestOC, b.BestTime)
			}
		}
	}
	if len(d1.Instances) != len(d2.Instances) {
		t.Fatalf("instance counts differ: %d vs %d", len(d1.Instances), len(d2.Instances))
	}
}

func TestCollectValidates(t *testing.T) {
	d := smallDataset(t)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Instances) == 0 {
		t.Fatal("no instances")
	}
}

func TestBestTimeMatrixAndLabels(t *testing.T) {
	d := smallDataset(t)
	m := d.BestTimeMatrix(0)
	if len(m) != opt.NumCombinations || len(m[0]) != len(d.Stencils) {
		t.Fatalf("matrix shape %dx%d", len(m), len(m[0]))
	}
	labels := d.Labels(0)
	for si, l := range labels {
		if l < 0 || l >= opt.NumCombinations {
			t.Fatalf("label %d out of range", l)
		}
		// The labeled OC's matrix cell must equal the best time.
		if math.Abs(m[l][si]-d.Profiles[0][si].BestTime) > 1e-15 {
			t.Fatalf("label/matrix mismatch at stencil %d", si)
		}
	}
}

// TestDatasetRoundTrip: write → read → write is byte-identical, and what
// a file does not store (arch specs) is rehydrated from the catalog.
func TestDatasetRoundTrip(t *testing.T) {
	d := smallDataset(t)
	var first, second bytes.Buffer
	if err := d.Write(&first); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("dataset file changed in a round trip: %d bytes written, %d re-written", first.Len(), second.Len())
	}
	if !reflect.DeepEqual(d.Instances, back.Instances) || len(back.Stencils) != len(d.Stencils) {
		t.Fatalf("round trip lost data: %d/%d stencils, %d/%d instances",
			len(back.Stencils), len(d.Stencils), len(back.Instances), len(d.Instances))
	}
	for ai := range d.Profiles {
		for si := range d.Profiles[ai] {
			if back.Profiles[ai][si].BestTime != d.Profiles[ai][si].BestTime {
				t.Fatalf("best time changed in round trip at [%d][%d]", ai, si)
			}
		}
	}
	if back.Archs[0].MemBWGBs != d.Archs[0].MemBWGBs {
		t.Error("arch specs not rehydrated from catalog")
	}
}

// TestReadJSONRejectsGarbage: Read is not a JSON reader. What an older
// build's ReadJSON took — and what it refused — is refused alike, by the
// frame (TestDatasetFileRefusals has the error classes).
func TestReadJSONRejectsGarbage(t *testing.T) {
	for _, in := range []string{"{", `{"archs":["NoSuchGPU"],"stencils":[{"name":"x","dims":2,"points":[0,0,0]}]}`} {
		if _, err := Read(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%s accepted", in)
		}
	}
}

func TestFolds(t *testing.T) {
	folds, err := Folds(23, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := map[int]bool{}
	total := 0
	for _, f := range folds {
		total += len(f)
		if len(f) < 4 || len(f) > 5 {
			t.Errorf("fold size %d outside [4,5]", len(f))
		}
		for _, i := range f {
			if seen[i] {
				t.Errorf("index %d in two folds", i)
			}
			seen[i] = true
		}
	}
	if total != 23 {
		t.Errorf("folds cover %d items, want 23", total)
	}
	train, test := TrainTest(folds, 2)
	if len(train)+len(test) != 23 || len(test) != len(folds[2]) {
		t.Errorf("train/test split %d/%d", len(train), len(test))
	}
	if _, err := Folds(3, 5, 1); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := Folds(10, 1, 1); err == nil {
		t.Error("k = 1 accepted")
	}
}

func TestProfilerErrors(t *testing.T) {
	p := NewProfiler(0, 1)
	arch, _ := gpu.ByName("V100")
	if _, _, err := p.ProfileOne(context.Background(), 0, stencil.Star(2, 1), arch); err == nil {
		t.Error("zero samples accepted")
	}
	p2 := NewProfiler(4, 1)
	if _, err := p2.Collect(context.Background(), nil, gpu.Catalog()); err == nil {
		t.Error("empty corpus accepted")
	}
}

// medianDataset builds a minimal hand-rolled dataset whose instances give
// one (OC, stencil) cell a controlled sample list.
func medianDataset(t *testing.T, times []float64) *Dataset {
	t.Helper()
	s, err := stencil.New("probe", 2, []stencil.Point{{Dx: 0, Dy: 0}, {Dx: 1, Dy: 0}})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	d := &Dataset{Stencils: []stencil.Stencil{s}, Archs: []gpu.Arch{arch}}
	oc := opt.Combinations()[0]
	for _, tm := range times {
		d.Instances = append(d.Instances, Instance{StencilIdx: 0, OC: oc, Arch: arch.Name, Time: tm})
	}
	return d
}

// TestMedianTimeMatrixTrueMedian covers both parities: the old
// ts[len/2] picked the upper-middle element for even sample counts.
func TestMedianTimeMatrixTrueMedian(t *testing.T) {
	cases := []struct {
		times []float64
		want  float64
	}{
		{[]float64{3, 1, 2}, 2},      // odd: middle element
		{[]float64{4, 1, 3, 2}, 2.5}, // even: mean of the two middle
		{[]float64{10, 2}, 6},        // even, n=2
		{[]float64{5}, 5},            // single sample
	}
	for _, c := range cases {
		d := medianDataset(t, c.times)
		m := d.MedianTimeMatrix(0)
		if got := m[0][0]; got != c.want {
			t.Errorf("median of %v = %g, want %g", c.times, got, c.want)
		}
	}
	// Cells with no samples stay NaN.
	d := medianDataset(t, []float64{1})
	if v := d.MedianTimeMatrix(0)[1][0]; !math.IsNaN(v) {
		t.Errorf("empty cell median = %g, want NaN", v)
	}
}

// TestValidateRejectsInfiniteResultTime guards the per-OC result check:
// instances were IsInf-checked but Profile.Results entries were not, so a
// corrupt dataset with an infinite time validated cleanly.
func TestValidateRejectsInfiniteResultTime(t *testing.T) {
	d := smallDataset(t)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	save := d.Profiles[0][0].Results[0]
	d.Profiles[0][0].Results[0].Crashed = false
	d.Profiles[0][0].Results[0].Time = math.Inf(1)
	if err := d.Validate(); err == nil {
		t.Fatal("dataset with +Inf result time validated cleanly")
	}
	d.Profiles[0][0].Results[0] = save

	// Same for an infinite per-stencil best time.
	d.Profiles[0][0].BestTime = math.Inf(1)
	if err := d.Validate(); err == nil {
		t.Fatal("dataset with +Inf best time validated cleanly")
	}
}

// TestValidateHoldsLabelsToResults: a profile's label is a function of
// its results and its arch is its row's. A dataset whose first profile
// named another non-crashed OC with a best time of 123, or another GPU,
// validated — a file with the edited label read back cleanly — and
// Labels(), the classification ground truth, returned the edited class.
// (A file cannot spell the other GPU: a profile's arch is its position.)
func TestValidateHoldsLabelsToResults(t *testing.T) {
	d := smallDataset(t)
	for ai, row := range d.Profiles {
		for si, p := range row {
			if oc, best, ok := bestResult(p.Results); !ok || oc != p.BestOC || best != p.BestTime {
				t.Fatalf("collected profile %d/%d is labelled %s/%g, its results say %s/%g", ai, si, p.BestOC, p.BestTime, oc, best)
			}
		}
	}
	reject := func(what string, edit func(p *Profile)) {
		t.Helper()
		p := &d.Profiles[0][0]
		save := *p
		p.Results = append([]OCResult(nil), p.Results...)
		edit(p)
		var file bytes.Buffer
		invalid, err := d.Validate(), d.Write(&file)
		*p = save
		if err != nil {
			t.Fatal(err)
		}
		if invalid == nil {
			t.Errorf("a dataset with %s validated", what)
		}
		if _, err := Read(&file); err == nil && what != "another GPU's name on the profile" {
			t.Errorf("a dataset file with %s read back cleanly", what)
		}
	}
	// pair finds the best result and another that ran, by position.
	pair := func(p *Profile) (best, other int) {
		best, other = -1, -1
		for ci, r := range p.Results {
			if r.OC == p.BestOC {
				best = ci
			} else if !r.Crashed && other < 0 {
				other = ci
			}
		}
		if best < 0 || other < 0 {
			t.Fatal("no second OC that ran")
		}
		return best, other
	}
	reject("a label naming a slower OC", func(p *Profile) { _, o := pair(p); p.BestOC, p.BestTime = p.Results[o].OC, 123 })
	reject("a label naming a slower OC at its own time", func(p *Profile) { _, o := pair(p); p.BestOC, p.BestTime = p.Results[o].OC, p.Results[o].Time })
	reject("the right OC at the wrong time", func(p *Profile) { p.BestTime = math.Nextafter(p.BestTime, 0) })
	reject("a tie labelled with the later OC", func(p *Profile) {
		b, o := pair(p)
		p.Results[o].Time, p.BestOC = p.BestTime, p.Results[max(b, o)].OC
	})
	reject("another GPU's name on the profile", func(p *Profile) { p.Arch = d.Archs[1].Name })
	if err := d.Validate(); err != nil {
		t.Fatalf("the dataset the edits were undone on: %v", err)
	}
}

// TestAllocGateProfileOne is the allocation contract of the collection
// sample loop, enforced by check.sh. A sample a hard resource limit
// rejects costs the one typed error value — a second allocation means
// the message is being formatted for a loop that skips the sample
// without reading it. A whole cell on a fresh simulator stays under 150
// allocations (965 before the typed errors, 372 while sim.compile
// embedded the stencil once per projection): about 90 are the sample
// loop's — the rejected samples' errors, the rows, the rng — and
// sim.compile's are a handful (TestAllocGateCompile bounds them).
func TestAllocGateProfileOne(t *testing.T) {
	ctx := context.Background()
	v100, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	rejected := []struct {
		s    stencil.Stencil
		oc   opt.Opt
		p    opt.Params
		kind error
	}{
		{stencil.Box(3, 4), opt.TB, opt.Params{BlockX: 32, BlockY: 8, Merge: 1, Unroll: 1, TBDepth: 2}, sim.ErrInvalidConfig},
		{stencil.Box(2, 4), opt.TB | opt.BM, opt.Params{BlockX: 32, BlockY: 4, Merge: 8, MergeDim: 2, Unroll: 1, TBDepth: 4}, sim.ErrCrash},
	}
	for _, c := range rejected {
		p := NewProfiler(12, 1)
		eval := p.model().CellFn(sim.DefaultWorkload(c.s), v100)
		var got error
		allocs := testing.AllocsPerRun(200, func() {
			_, got = eval(c.oc, c.p)
		})
		if !errors.Is(got, c.kind) {
			t.Fatalf("%s %s: got %v, want %v", c.s.Name, c.oc, got, c.kind)
		}
		if allocs > 1 {
			t.Errorf("%s %s: a rejected sample allocates %v, want at most the error value", c.s.Name, c.oc, allocs)
		}
	}

	a100, err := gpu.ByName("A100")
	if err != nil {
		t.Fatal(err)
	}
	s := stencil.Cross(3, 2)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := NewProfiler(12, 1).ProfileOne(ctx, 0, s, a100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Errorf("ProfileOne of %s on A100 allocates %v, want <= 150", s.Name, allocs)
	}
	t.Logf("ProfileOne allocations: %v", allocs)
}
