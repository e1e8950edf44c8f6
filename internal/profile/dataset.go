package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/persist"
	"stencilmart/internal/stencil"
)

// Dataset is the profiled stencil corpus: every stencil's per-OC best
// times on every architecture, plus the flat instance list for regression.
type Dataset struct {
	Stencils  []stencil.Stencil
	Archs     []gpu.Arch
	Profiles  [][]Profile // [archIdx][stencilIdx]
	Instances []Instance
}

// ArchIndex returns the position of the named architecture, or an error.
func (d *Dataset) ArchIndex(name string) (int, error) {
	for i, a := range d.Archs {
		if a.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: architecture %q not in dataset", name)
}

// BestTimeMatrix returns, for one architecture, the per-OC best times as
// a [ocIdx][stencilIdx] matrix with NaN for crashed cells — the input to
// pairwise-OC correlation (Sec. III-C).
func (d *Dataset) BestTimeMatrix(archIdx int) [][]float64 {
	nOC := opt.NumCombinations
	m := make([][]float64, nOC)
	for ci := range m {
		m[ci] = make([]float64, len(d.Stencils))
		for si := range d.Stencils {
			res := d.Profiles[archIdx][si].Results[ci]
			if res.Crashed {
				m[ci][si] = math.NaN()
			} else {
				m[ci][si] = res.Time
			}
		}
	}
	return m
}

// MedianTimeMatrix returns, for one architecture, the per-OC *median*
// sampled time as a [ocIdx][stencilIdx] matrix with NaN where no sample
// ran. The median is a far more stable statistic of an OC's behavior
// than the best-of-N minimum, so the PCC-based OC merging correlates
// medians while best-OC labels keep using the minimum.
func (d *Dataset) MedianTimeMatrix(archIdx int) [][]float64 {
	arch := d.Archs[archIdx].Name
	samples := make([][][]float64, opt.NumCombinations)
	for ci := range samples {
		samples[ci] = make([][]float64, len(d.Stencils))
	}
	for _, in := range d.Instances {
		if in.Arch != arch {
			continue
		}
		ci := opt.Index(in.OC)
		samples[ci][in.StencilIdx] = append(samples[ci][in.StencilIdx], in.Time)
	}
	m := make([][]float64, opt.NumCombinations)
	for ci := range m {
		m[ci] = make([]float64, len(d.Stencils))
		for si := range d.Stencils {
			ts := samples[ci][si]
			if len(ts) == 0 {
				m[ci][si] = math.NaN()
				continue
			}
			sort.Float64s(ts)
			// True median: the middle element for odd counts, the mean of
			// the two middle elements for even counts (ts[n/2] alone would
			// be the upper-middle value).
			if n := len(ts); n%2 == 1 {
				m[ci][si] = ts[n/2]
			} else {
				m[ci][si] = (ts[n/2-1] + ts[n/2]) / 2
			}
		}
	}
	return m
}

// Labels returns the best-OC index (into opt.Combinations) per stencil on
// one architecture — the classification ground truth.
func (d *Dataset) Labels(archIdx int) []int {
	out := make([]int, len(d.Stencils))
	for si := range d.Stencils {
		out[si] = opt.Index(d.Profiles[archIdx][si].BestOC)
	}
	return out
}

// InstancesByArch partitions the instance list by architecture name.
func (d *Dataset) InstancesByArch() map[string][]Instance {
	out := make(map[string][]Instance, len(d.Archs))
	for _, in := range d.Instances {
		out[in.Arch] = append(out[in.Arch], in)
	}
	return out
}

// Validate checks dataset structural invariants; used after
// deserialization.
func (d *Dataset) Validate() error {
	if len(d.Archs) == 0 || len(d.Stencils) == 0 {
		return fmt.Errorf("profile: empty dataset")
	}
	if len(d.Profiles) != len(d.Archs) {
		return fmt.Errorf("profile: %d profile rows for %d archs", len(d.Profiles), len(d.Archs))
	}
	combos := opt.Combinations()
	for ai, row := range d.Profiles {
		if len(row) != len(d.Stencils) {
			return fmt.Errorf("profile: arch %s has %d profiles for %d stencils",
				d.Archs[ai].Name, len(row), len(d.Stencils))
		}
		for si, p := range row {
			if p.StencilIdx != si || p.Arch != d.Archs[ai].Name {
				return fmt.Errorf("profile: arch %s profile %d indexes stencil %d on %q", d.Archs[ai].Name, si, p.StencilIdx, p.Arch)
			}
			if len(p.Results) != opt.NumCombinations {
				return fmt.Errorf("profile: arch %s stencil %d has %d OC results", d.Archs[ai].Name, si, len(p.Results))
			}
			// Results must follow the canonical OC order: downstream code
			// indexes Results[ci] by position in opt.Combinations.
			for ci, res := range p.Results {
				if res.OC != combos[ci] {
					return fmt.Errorf("profile: arch %s stencil %d result %d holds OC %s, want %s",
						d.Archs[ai].Name, si, ci, res.OC, combos[ci])
				}
				// Infinite times must be rejected alongside NaN: an +Inf
				// result in a hand-edited or corrupt dataset would
				// otherwise validate cleanly and poison the best-OC labels.
				if !res.Crashed && (res.Time <= 0 || math.IsNaN(res.Time) || math.IsInf(res.Time, 0)) {
					return fmt.Errorf("profile: arch %s stencil %d OC %s has non-positive or non-finite time", d.Archs[ai].Name, si, res.OC)
				}
			}
			// The label is a function of the results (checked above), so
			// it cannot be edited on its own: Labels() is ground truth.
			if oc, best, ok := bestResult(p.Results); !ok || p.BestOC != oc || math.Float64bits(p.BestTime) != math.Float64bits(best) {
				return fmt.Errorf("profile: arch %s stencil %d has best OC/time %s/%g, its results say %s/%g", d.Archs[ai].Name, si, p.BestOC, p.BestTime, oc, best)
			}
		}
	}
	archNames := make(map[string]bool, len(d.Archs))
	for _, a := range d.Archs {
		archNames[a.Name] = true
	}
	for i, in := range d.Instances {
		if in.StencilIdx < 0 || in.StencilIdx >= len(d.Stencils) {
			return fmt.Errorf("profile: instance %d references stencil %d", i, in.StencilIdx)
		}
		if !archNames[in.Arch] {
			return fmt.Errorf("profile: instance %d references unknown arch %q", i, in.Arch)
		}
		// An invalid OC would index opt.Combinations at -1 downstream
		// (MedianTimeMatrix); reject it here instead of panicking there.
		if !in.OC.Valid() {
			return fmt.Errorf("profile: instance %d has invalid OC %#x", i, int(in.OC))
		}
		if in.Time <= 0 || math.IsNaN(in.Time) || math.IsInf(in.Time, 0) {
			return fmt.Errorf("profile: instance %d has non-positive time", i)
		}
	}
	return nil
}

// Wire is the dataset's serialization schema, shared by WriteJSON/ReadJSON
// and the framework checkpoint. A dataset file is the whole of it as
// JSON, the instance list — the bulk of the bytes — as columns; a
// checkpoint keeps the Corpus in its manifest and moves the numbers,
// profiles and instances, into its binary section (AppendColumns).
type Wire struct {
	Corpus
	Profiles  [][]Profile     `json:"profiles"`
	Instances instanceColumns `json:"instances"`
}

// Corpus names what was profiled and where. Stencil points flatten into
// triplets; architectures serialize by name and are rehydrated from the
// catalog so microarchitectural constants stay in code.
type Corpus struct {
	Stencils []stencilJSON `json:"stencils"`
	Archs    []string      `json:"archs"`
}

type stencilJSON struct {
	Name   string `json:"name"`
	Dims   int    `json:"dims"`
	Points []int  `json:"points"` // dx,dy,dz triplets
}

// instanceColumns holds the instance list as parallel arrays: row i of
// every column is instance i.
type instanceColumns struct {
	Stencil persist.Ints   `json:"stencil"`
	OC      persist.Ints   `json:"oc"`
	Arch    persist.Ints   `json:"arch"` // index into Wire.Archs
	Time    persist.Floats `json:"time"`
	Params  persist.Ints   `json:"params"` // paramCols per instance, opt.Params field order
}

const paramCols = 10

// Wire renders the dataset in its serialization schema. An instance whose
// arch is not in the dataset's list (Validate refuses it) is written with
// index -1, which no reader accepts.
func (d *Dataset) Wire() Wire {
	out := Wire{Profiles: d.Profiles}
	for _, s := range d.Stencils {
		sj := stencilJSON{Name: s.Name, Dims: s.Dims}
		for _, p := range s.Points {
			sj.Points = append(sj.Points, p.Dx, p.Dy, p.Dz)
		}
		out.Stencils = append(out.Stencils, sj)
	}
	archIdx := make(map[string]int, len(d.Archs))
	for i, a := range d.Archs {
		out.Archs = append(out.Archs, a.Name)
		archIdx[a.Name] = i + 1 // so a missing name reads as 0
	}
	n := len(d.Instances)
	c := instanceColumns{Stencil: make(persist.Ints, n), OC: make(persist.Ints, n), Arch: make(persist.Ints, n),
		Time: make(persist.Floats, n), Params: make(persist.Ints, 0, n*paramCols)}
	for i, in := range d.Instances {
		c.Stencil[i], c.OC[i], c.Arch[i], c.Time[i] = in.StencilIdx, int(in.OC), archIdx[in.Arch]-1, in.Time
		c.Params = appendParams(c.Params, in.Params)
	}
	out.Instances = c
	return out
}

// appendParams flattens p into paramCols integers, opt.Params field order.
func appendParams(dst []int, p opt.Params) []int {
	smem := 0
	if p.UseSmem {
		smem = 1
	}
	return append(dst, p.BlockX, p.BlockY, p.Merge, p.MergeDim, p.StreamTile, p.StreamDim, p.Unroll, smem, p.TBDepth, p.PrefetchDepth)
}

// paramsOf is appendParams' inverse; ok is false when useSmem is neither
// 0 nor 1.
func paramsOf(p []int) (_ opt.Params, ok bool) {
	return opt.Params{BlockX: p[0], BlockY: p[1], Merge: p[2], MergeDim: p[3], StreamTile: p[4], StreamDim: p[5],
		Unroll: p[6], UseSmem: p[7] == 1, TBDepth: p[8], PrefetchDepth: p[9]}, p[7] == 0 || p[7] == 1
}

// AppendColumns appends everything of the wire form but its Corpus: the
// profiles, flattened arch-major into one row per (arch, stencil, OC)
// result — OC, crashed flag, time (0 where crashed: a column holds no
// NaN), paramCols params — then each profile's best OC and time, then the
// five instance columns. A profile's stencil index and arch are its
// position and are not stored.
func (w *Wire) AppendColumns(c *persist.Columns) {
	n := len(w.Archs) * len(w.Stencils) * opt.NumCombinations
	ocs, crashed, times, params := make([]opt.Opt, 0, n), make([]uint8, 0, n), make([]float64, 0, n), make([]int, 0, n*paramCols)
	var bestOC []opt.Opt
	var bestTime []float64
	for _, row := range w.Profiles {
		for _, p := range row {
			for _, r := range p.Results {
				flag, t := uint8(0), r.Time
				if r.Crashed {
					flag, t = 1, 0
				}
				ocs, crashed, times, params = append(ocs, r.OC), append(crashed, flag), append(times, t), appendParams(params, r.Params)
			}
			bestOC, bestTime = append(bestOC, p.BestOC), append(bestTime, p.BestTime)
		}
	}
	persist.AppendInts(c, ocs)
	persist.AppendInts(c, crashed)
	c.AppendFloats(times)
	persist.AppendInts(c, params)
	persist.AppendInts(c, bestOC)
	c.AppendFloats(bestTime)
	persist.AppendInts(c, w.Instances.Stencil)
	persist.AppendInts(c, w.Instances.OC)
	persist.AppendInts(c, w.Instances.Arch)
	c.AppendFloats(w.Instances.Time)
	persist.AppendInts(c, w.Instances.Params)
}

// ReadColumns is AppendColumns' inverse: it fills Profiles, shaped by the
// Corpus already in w, and Instances from the next eleven columns of c.
func (w *Wire) ReadColumns(c *persist.Columns) error {
	ocs, crashed, times, params := persist.ReadInts[opt.Opt](c), persist.ReadInts[uint8](c), c.ReadFloats(), persist.ReadInts[int](c)
	bestOC, bestTime := persist.ReadInts[opt.Opt](c), c.ReadFloats()
	w.Instances = instanceColumns{Stencil: persist.ReadInts[int](c), OC: persist.ReadInts[int](c), Arch: persist.ReadInts[int](c),
		Time: c.ReadFloats(), Params: persist.ReadInts[int](c)}
	if err := c.Err(); err != nil {
		return err
	}
	cells := len(w.Archs) * len(w.Stencils)
	n := cells * opt.NumCombinations
	if len(ocs) != n || len(crashed) != n || len(times) != n || len(params) != n*paramCols || len(bestOC) != cells || len(bestTime) != cells {
		return fmt.Errorf("profile: ragged result columns for %d archs × %d stencils: %d oc, %d crashed, %d time, %d params (%d each), %d best oc, %d best time",
			len(w.Archs), len(w.Stencils), len(ocs), len(crashed), len(times), len(params), paramCols, len(bestOC), len(bestTime))
	}
	results := make([]OCResult, n)
	for i := range results {
		p, ok := paramsOf(params[i*paramCols : (i+1)*paramCols])
		if !ok || crashed[i] > 1 {
			return fmt.Errorf("profile: result %d has crashed flag %d or useSmem %d out of range", i, crashed[i], params[i*paramCols+7])
		}
		results[i] = OCResult{OC: ocs[i], Time: times[i], Params: p}
		if crashed[i] == 1 {
			results[i].Crashed, results[i].Time = true, math.NaN()
		}
	}
	w.Profiles = make([][]Profile, len(w.Archs))
	for ai, arch := range w.Archs {
		w.Profiles[ai] = make([]Profile, len(w.Stencils))
		for si := range w.Profiles[ai] {
			cell := ai*len(w.Stencils) + si
			at := cell * opt.NumCombinations
			w.Profiles[ai][si] = Profile{StencilIdx: si, Arch: arch, Results: results[at : at+opt.NumCombinations : at+opt.NumCombinations],
				BestOC: bestOC[cell], BestTime: bestTime[cell]}
		}
	}
	return nil
}

// Dataset rehydrates and validates the dataset a Wire describes.
func (w *Wire) Dataset() (*Dataset, error) {
	d := &Dataset{Profiles: w.Profiles}
	for _, sj := range w.Stencils {
		if len(sj.Points)%3 != 0 {
			return nil, fmt.Errorf("profile: stencil %q has %d point coords", sj.Name, len(sj.Points))
		}
		var pts []stencil.Point
		for i := 0; i+2 < len(sj.Points); i += 3 {
			pts = append(pts, stencil.Point{Dx: sj.Points[i], Dy: sj.Points[i+1], Dz: sj.Points[i+2]})
		}
		s, err := stencil.New(sj.Name, sj.Dims, pts)
		if err != nil {
			return nil, err
		}
		d.Stencils = append(d.Stencils, s)
	}
	for _, name := range w.Archs {
		a, err := gpu.ByName(name)
		if err != nil {
			return nil, err
		}
		d.Archs = append(d.Archs, a)
	}
	c := w.Instances
	n := len(c.Stencil)
	if len(c.OC) != n || len(c.Arch) != n || len(c.Time) != n || len(c.Params) != n*paramCols {
		return nil, fmt.Errorf("profile: ragged instance columns: %d stencil, %d oc, %d arch, %d time, %d params (%d each)", n, len(c.OC), len(c.Arch), len(c.Time), len(c.Params), paramCols)
	}
	d.Instances = make([]Instance, n)
	for i := range d.Instances {
		p, ok := paramsOf(c.Params[i*paramCols : (i+1)*paramCols])
		if c.Arch[i] < 0 || c.Arch[i] >= len(d.Archs) || c.OC[i] < 0 || c.OC[i] > math.MaxUint8 || !ok {
			return nil, fmt.Errorf("profile: instance %d has arch index %d, OC %d or useSmem %d out of range", i, c.Arch[i], c.OC[i], c.Params[i*paramCols+7])
		}
		d.Instances[i] = Instance{StencilIdx: c.Stencil[i], OC: opt.Opt(c.OC[i]), Arch: d.Archs[c.Arch[i]].Name, Time: c.Time[i], Params: p}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// WriteJSON serializes the dataset.
func (d *Dataset) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(d.Wire())
}

// ReadJSON deserializes and validates a dataset.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var in Wire
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("profile: decode dataset: %w", err)
	}
	return in.Dataset()
}

// Folds splits n items into k cross-validation folds of near-equal size
// after a seeded shuffle, returning the item indices per fold (the 5-fold
// protocol of Sec. V-A3).
func Folds(n, k int, seed int64) ([][]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("profile: cannot split %d items into %d folds", n, k)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([][]int, k)
	for i, v := range idx {
		out[i%k] = append(out[i%k], v)
	}
	return out, nil
}

// TrainTest returns the train and test index sets for the given fold.
func TrainTest(folds [][]int, fold int) (train, test []int) {
	for i, f := range folds {
		if i == fold {
			test = append(test, f...)
		} else {
			train = append(train, f...)
		}
	}
	return train, test
}
