package tree

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// pipelineBins is the bin count per column of the regression matrix the
// default preset trains on (6,000 x 44, 397 bins in total): a handful of
// wide columns, a median of five bins, six two-valued OC flags and two
// constants — the opposite regime from benchData's 12 x 256.
var pipelineBins = []int{4, 17, 17, 6, 8, 8, 5, 20, 20, 14, 8, 1, 38, 10, 7, 7, 2, 2, 2, 2, 2, 2, 4, 5, 4, 3, 6, 2, 3, 2, 3, 3, 4, 4, 4, 4, 14, 10, 18, 4, 1, 7, 7, 7}

// binnedData builds a matrix whose column f takes bins[f] distinct
// values (0 = continuous, which overflows any bin budget), a regression
// target mixing the first columns and a label cut from the same mix.
func binnedData(seed int64, rows int, bins []int, classes int) (x [][]float64, yv []float64, yc []int) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, rows)
	yv = make([]float64, rows)
	yc = make([]int, rows)
	for i := range x {
		x[i] = make([]float64, len(bins))
		for f, nb := range bins {
			if nb == 0 {
				x[i][f] = rng.NormFloat64()
			} else {
				x[i][f] = float64(rng.Intn(nb)) / float64(nb)
			}
		}
		mix := 3*x[i][0] - 2*x[i][1]*x[i][1] + x[i][2]*x[i][len(bins)-1]
		yv[i] = mix + 0.1*rng.NormFloat64()
		yc[i] = int(mix*mix*7) % classes
	}
	return x, yv, yc
}

func stateDigest(t *testing.T, state any) string {
	t.Helper()
	b, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFittedStateGolden pins the bits of one small seeded fit per
// ensemble, over columns of 1 to 256 bins with subsampling: the digests
// were recorded at the commit before histograms went row-wise, so any
// change to summation order, split choice or thresholds fails here, in
// the package that owns them.
func TestFittedStateGolden(t *testing.T) {
	bins := []int{2, 5, 17, 1, 0, 7, 38, 3}
	x, yv, yc := binnedData(5, 500, bins, 4)
	atProcs(t, func(t *testing.T) {
		r := NewGBRegressor(BoostConfig{Rounds: 12, Seed: 3, Tree: TreeConfig{MaxDepth: 5, MinLeaf: 3}})
		if err := r.FitRegressor(x, yv); err != nil {
			t.Fatal(err)
		}
		if got, want := stateDigest(t, r.State()), "39c697094e2f9f6a3d16575f67242f8186e765220fa21dfba671e652bdf6786d"; got != want {
			t.Errorf("GBRegressor state digest %s, want %s", got, want)
		}
		c := NewGBDT(BoostConfig{Rounds: 6, Seed: 3, Tree: TreeConfig{MaxDepth: 4}})
		if err := c.FitClassifier(x, yc, 4); err != nil {
			t.Fatal(err)
		}
		if got, want := stateDigest(t, c.State()), "08bac23a14b0eb21210166a2d524a8c845e9e502cc1a840ea08db396e0f29cc5"; got != want {
			t.Errorf("GBDT state digest %s, want %s", got, want)
		}
	})
}

// columnHist is the histogram layout before cells became histBin: three
// parallel arrays, the hessian sum kept even when every hessian is one.
type columnHist struct {
	g, h []float64
	cnt  []int32
}

// accumFeatureColumnwise is the accumulate loop this package had before
// the row-wise pass, kept verbatim as its oracle (only the code lookup
// follows the layout): one feature at a time over the node's rows.
func accumFeatureColumnwise(hi *histIndex, y, h []float64, nh *columnHist, seg []int32, f int) {
	off := hi.offsets[f]
	code := func(i int32) int { return int(hi.codes[int(i)*hi.nf+f]) }
	if h != nil {
		for _, i := range seg {
			b := off + code(i)
			nh.g[b] += y[i]
			nh.h[b] += h[i]
			nh.cnt[b]++
		}
	} else {
		for _, i := range seg {
			b := off + code(i)
			nh.g[b] += y[i]
			nh.h[b]++
			nh.cnt[b]++
		}
	}
}

// TestAccumulateMatchesColumnwise is the differential check on the
// row-wise histogram pass: over columns of 1, 2, 7 and 256 bins, with
// and without hessians, on full, subsampled and shuffled row sets, every
// cell must hold the bits the column-wise loop produces — each cell sums
// the same rows in the same order — and a unit-hessian cell's count must
// be the hessian sum the old layout kept.
func TestAccumulateMatchesColumnwise(t *testing.T) {
	const rows = 700
	x, y, _ := binnedData(7, rows, []int{1, 2, 7, 0, 2, 7}, 2)
	hi := buildHistIndex(x, maxHistBins)
	if got := hi.nbins; got[0] != 1 || got[1] != 2 || got[2] != 7 || got[3] != 256 {
		t.Fatalf("bins per feature %v, want 1, 2, 7, 256, ...", got)
	}
	rng := rand.New(rand.NewSource(8))
	hess := make([]float64, rows)
	for i := range hess {
		hess[i] = 0.05 + rng.Float64()
	}
	var all, subsampled, shuffled []int32
	for i := int32(0); i < rows; i++ {
		all = append(all, i)
		if i%3 != 1 {
			subsampled = append(subsampled, i)
		}
	}
	for _, i := range rng.Perm(rows)[:rows/2] {
		shuffled = append(shuffled, int32(i))
	}
	for _, c := range []struct {
		name string
		seg  []int32
	}{{"all", all}, {"subsampled", subsampled}, {"shuffled", shuffled}} {
		for _, h := range [][]float64{nil, hess} {
			hb := newHistBuilder(hi, TreeConfig{})
			hb.y, hb.h = y, h
			got := hb.alloc()
			hb.accumulate(got, c.seg)
			want := &columnHist{g: make([]float64, hi.total), h: make([]float64, hi.total), cnt: make([]int32, hi.total)}
			for f := 0; f < hi.nf; f++ {
				accumFeatureColumnwise(hi, y, h, want, c.seg, f)
			}
			for b := range got {
				if math.Float64bits(got[b].g) != math.Float64bits(want.g[b]) || got[b].cnt != want.cnt[b] ||
					math.Float64bits(hb.hess(&got[b])) != math.Float64bits(want.h[b]) {
					t.Fatalf("%s rows, hessians %t, cell %d: row-wise {%v %v %d}, column-wise {%v %v %d}",
						c.name, h != nil, b, got[b].g, hb.hess(&got[b]), got[b].cnt, want.g[b], want.h[b], want.cnt[b])
				}
			}
		}
	}
}

// TestAllocGateGBRegressorFit bounds what one more boosting round
// allocates: the builder's row buffers, node columns and histograms are
// the ensemble's, so a round costs its tree's six columns, the
// subsample permutation and its share of the ensemble slice's growth.
func TestAllocGateGBRegressorFit(t *testing.T) {
	x, y, _ := binnedData(11, 400, []int{3, 0, 9, 2, 0}, 2)
	fit := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			g := NewGBRegressor(BoostConfig{Rounds: rounds, Seed: 5, Tree: TreeConfig{MaxDepth: 5}})
			if err := g.FitRegressor(x, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	const base, extra = 20, 40
	if perRound := (fit(base+extra) - fit(base)) / extra; perRound > 8 {
		t.Errorf("%.1f allocations per additional round, want <= 8", perRound)
	}
}
