package profile

import (
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

// A measured record — a profile's per-OC results and label, an instance's
// OC, time and params — is spelled one way, as persist.Columns, at two
// granularities: a whole dataset (the dataset file, and the dataset
// section of a framework checkpoint) and one journal cell. This file is
// the only one that knows the spelling; DESIGN.md §7 tables the columns.
// What is text stays JSON: the Corpus, as the manifest beside the columns.

// DatasetKind and DatasetVersion frame a dataset file in the persist
// envelope; the version bumps with any change to Corpus or the columns.
const (
	DatasetKind    = "stencilmart-dataset"
	DatasetVersion = 1
)

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

// Corpus renders the dataset's stencils and architecture names.
func (d *Dataset) Corpus() Corpus {
	var out Corpus
	for _, s := range d.Stencils {
		sj := stencilJSON{Name: s.Name, Dims: s.Dims}
		for _, p := range s.Points {
			sj.Points = append(sj.Points, p.Dx, p.Dy, p.Dz)
		}
		out.Stencils = append(out.Stencils, sj)
	}
	for _, a := range d.Archs {
		out.Archs = append(out.Archs, a.Name)
	}
	return out
}

// rehydrate is Corpus' inverse: the stencils rebuilt and re-validated,
// the architectures looked up in the catalog.
func (c Corpus) rehydrate() (*Dataset, error) {
	d := &Dataset{}
	for _, sj := range c.Stencils {
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
	for _, name := range c.Archs {
		a, err := gpu.ByName(name)
		if err != nil {
			return nil, err
		}
		d.Archs = append(d.Archs, a)
	}
	return d, nil
}

const paramCols = 10

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

// appendProfiles appends a run of profiles as six columns: one row per
// (profile, OC) result — OC, crashed flag, time (0 where crashed: a column
// holds no NaN), paramCols params — then each profile's best OC and time.
// A profile's stencil index and arch are its position and are not stored.
func appendProfiles(c *persist.Columns, rows ...[]Profile) {
	n := 0
	for _, row := range rows {
		n += len(row) * opt.NumCombinations
	}
	ocs, crashed, times, params := make([]opt.Opt, 0, n), make([]uint8, 0, n), make([]float64, 0, n), make([]int, 0, n*paramCols)
	var bestOC []opt.Opt
	var bestTime []float64
	for _, row := range rows {
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
}

// readProfiles is appendProfiles' inverse for a run of n profiles of
// opt.NumCombinations results each; the caller places them.
func readProfiles(c *persist.Columns, n int) ([]Profile, error) {
	ocs, crashed, times, params := persist.ReadInts[opt.Opt](c), persist.ReadInts[uint8](c), c.ReadFloats(), persist.ReadInts[int](c)
	bestOC, bestTime := persist.ReadInts[opt.Opt](c), c.ReadFloats()
	if err := c.Err(); err != nil {
		return nil, err
	}
	rows := n * opt.NumCombinations
	if len(ocs) != rows || len(crashed) != rows || len(times) != rows || len(params) != rows*paramCols || len(bestOC) != n || len(bestTime) != n {
		return nil, fmt.Errorf("profile: ragged result columns for %d profiles of %d OCs: %d oc, %d crashed, %d time, %d params (%d each), %d best oc, %d best time",
			n, opt.NumCombinations, len(ocs), len(crashed), len(times), len(params), paramCols, len(bestOC), len(bestTime))
	}
	results := make([]OCResult, rows)
	for i := range results {
		p, ok := paramsOf(params[i*paramCols : (i+1)*paramCols])
		if !ok || crashed[i] > 1 {
			return nil, fmt.Errorf("profile: result %d has crashed flag %d or useSmem %d out of range", i, crashed[i], params[i*paramCols+7])
		}
		results[i] = OCResult{OC: ocs[i], Time: times[i], Params: p}
		if crashed[i] == 1 {
			// appendProfiles writes +0 here; anything else would read
			// back as the same dataset but a different file.
			if math.Float64bits(times[i]) != 0 {
				return nil, fmt.Errorf("profile: crashed result %d has time %v, want 0", i, times[i])
			}
			results[i].Crashed, results[i].Time = true, math.NaN()
		}
	}
	out := make([]Profile, n)
	for i := range out {
		at := i * opt.NumCombinations
		out[i] = Profile{Results: results[at : at+opt.NumCombinations : at+opt.NumCombinations], BestOC: bestOC[i], BestTime: bestTime[i]}
	}
	return out, nil
}

// instanceColumns spells a run of instances as three columns: OC, time
// and paramCols params each. Where an instance was measured is spelled by
// the caller — two more columns in a dataset, the cell index in a journal
// record.
func instanceColumns(ins []Instance) (ocs []opt.Opt, times []float64, params []int) {
	ocs, times, params = make([]opt.Opt, len(ins)), make([]float64, len(ins)), make([]int, 0, len(ins)*paramCols)
	for i, in := range ins {
		ocs[i], times[i], params = in.OC, in.Time, appendParams(params, in.Params)
	}
	return ocs, times, params
}

// instancesOf is instanceColumns' inverse, StencilIdx and Arch left for
// the caller to fill; c is consulted for a failed read first.
func instancesOf(c *persist.Columns, ocs []opt.Opt, times []float64, params []int) ([]Instance, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	if len(times) != len(ocs) || len(params) != len(ocs)*paramCols {
		return nil, fmt.Errorf("profile: ragged instance columns: %d oc, %d time, %d params (%d each)", len(ocs), len(times), len(params), paramCols)
	}
	out := make([]Instance, len(ocs))
	for i := range out {
		p, ok := paramsOf(params[i*paramCols : (i+1)*paramCols])
		if !ok {
			return nil, fmt.Errorf("profile: instance %d has useSmem %d out of range", i, params[i*paramCols+7])
		}
		out[i] = Instance{OC: ocs[i], Time: times[i], Params: p}
	}
	return out, nil
}

// AppendColumns appends everything of the dataset but its Corpus, as
// eleven columns: the profiles arch-major (appendProfiles), then the
// instances' stencil index, OC, arch index, time and params. An instance
// whose arch is not in the dataset's list (Validate refuses it) is written
// with index -1, which no reader accepts.
func (d *Dataset) AppendColumns(c *persist.Columns) {
	appendProfiles(c, d.Profiles...)
	archIdx := make(map[string]int, len(d.Archs))
	for i, a := range d.Archs {
		archIdx[a.Name] = i + 1 // so a missing name reads as 0
	}
	stencils, archs := make([]int, len(d.Instances)), make([]int, len(d.Instances))
	for i, in := range d.Instances {
		stencils[i], archs[i] = in.StencilIdx, archIdx[in.Arch]-1
	}
	ocs, times, params := instanceColumns(d.Instances)
	persist.AppendInts(c, stencils)
	persist.AppendInts(c, ocs)
	persist.AppendInts(c, archs)
	c.AppendFloats(times)
	persist.AppendInts(c, params)
}

// ReadColumns is AppendColumns' inverse: it rehydrates the corpus, takes
// the dataset's eleven columns off the front of c and validates the
// result.
func ReadColumns(corpus Corpus, c *persist.Columns) (*Dataset, error) {
	d, err := corpus.rehydrate()
	if err != nil {
		return nil, err
	}
	profiles, err := readProfiles(c, len(d.Archs)*len(d.Stencils))
	if err != nil {
		return nil, err
	}
	d.Profiles = make([][]Profile, len(d.Archs))
	for ai, a := range d.Archs {
		d.Profiles[ai] = profiles[ai*len(d.Stencils) : (ai+1)*len(d.Stencils)]
		for si := range d.Profiles[ai] {
			d.Profiles[ai][si].StencilIdx, d.Profiles[ai][si].Arch = si, a.Name
		}
	}
	stencils, ocs, archs := persist.ReadInts[int](c), persist.ReadInts[opt.Opt](c), persist.ReadInts[int](c)
	if d.Instances, err = instancesOf(c, ocs, c.ReadFloats(), persist.ReadInts[int](c)); err != nil {
		return nil, err
	}
	if len(stencils) != len(ocs) || len(archs) != len(ocs) {
		return nil, fmt.Errorf("profile: ragged instance columns: %d stencil, %d arch for %d instances", len(stencils), len(archs), len(ocs))
	}
	for i := range d.Instances {
		if archs[i] < 0 || archs[i] >= len(d.Archs) {
			return nil, fmt.Errorf("profile: instance %d has arch index %d out of range", i, archs[i])
		}
		d.Instances[i].StencilIdx, d.Instances[i].Arch = stencils[i], d.Archs[archs[i]].Name
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Write serializes the dataset as a persist frame: header line, the
// Corpus as manifest, the columns, one checksum over both.
func (d *Dataset) Write(w io.Writer) error {
	var cols persist.Columns
	d.AppendColumns(&cols)
	return persist.Write(w, DatasetKind, DatasetVersion, d.Corpus(), &cols)
}

// WriteFile writes the dataset file atomically (persist.WriteFile).
func (d *Dataset) WriteFile(path string) error { return persist.WriteFile(path, d.Write) }

// Read deserializes and validates a dataset file. Anything but a
// version-1 dataset frame that ends with its last column — a checkpoint,
// the JSON file an older build wrote, a flipped or appended byte — is
// refused with the persist error class that names it.
func Read(r io.Reader) (*Dataset, error) {
	var corpus Corpus
	cols, err := persist.Read(r, DatasetKind, DatasetVersion, &corpus)
	if err != nil {
		return nil, err
	}
	d, err := ReadColumns(corpus, cols)
	if err != nil {
		return nil, err
	}
	return d, cols.End()
}

// encode spells one journal cell as a WAL record: its index, its profile
// (appendProfiles, a run of one) and its instances' three columns. The
// cell's stencil and arch are its index and are not stored. Integers are
// shortest-form varints, so an honestly re-measured cell re-encodes to
// the same bytes.
func (cell *journalCell) encode() ([]byte, error) {
	var c persist.Columns
	persist.AppendInts(&c, []int{cell.Index})
	appendProfiles(&c, []Profile{cell.Profile})
	ocs, times, params := instanceColumns(cell.Instances)
	persist.AppendInts(&c, ocs)
	c.AppendFloats(times)
	persist.AppendInts(&c, params)
	return c.Bytes(), c.Err()
}

// decodeCell is encode's inverse for a collection of len(archs) × stencils
// cells.
func decodeCell(raw []byte, stencils int, archs []gpu.Arch) (*journalCell, error) {
	c := persist.ColumnsOf(raw)
	index := persist.ReadInts[int](c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if len(index) != 1 || index[0] < 0 || index[0] >= stencils*len(archs) {
		return nil, fmt.Errorf("profile: journal record is of cells %d, want one in [0,%d)", index, stencils*len(archs))
	}
	profiles, err := readProfiles(c, 1)
	if err != nil {
		return nil, err
	}
	cell := &journalCell{Index: index[0], Profile: profiles[0]}
	cell.Profile.StencilIdx, cell.Profile.Arch = cell.Index%stencils, archs[cell.Index/stencils].Name
	if cell.Instances, err = instancesOf(c, persist.ReadInts[opt.Opt](c), c.ReadFloats(), persist.ReadInts[int](c)); err != nil {
		return nil, err
	}
	for i := range cell.Instances {
		cell.Instances[i].StencilIdx, cell.Instances[i].Arch = cell.Profile.StencilIdx, cell.Profile.Arch
	}
	return cell, c.End()
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
