package tree

import (
	"context"
	"math"
	"sort"

	"stencilmart/internal/par"
)

// histParallelMin is the work floor (rows x features touched) below
// which histogram building runs serially; pool dispatch overhead
// dominates under it. Either path accumulates each feature's bins in row
// order and reduces split candidates in ascending feature order, so the
// threshold never changes the fitted tree — only how fast it fits.
const histParallelMin = 1 << 13

// histIndex is the per-fit binned form of a feature matrix: every
// (row, feature) cell quantized to a uint8 quantile-bin code, plus the
// split threshold between each pair of adjacent bins. Building it costs
// one sort per feature; afterwards every node's split search is an
// O(bins) histogram scan instead of an O(n log n) re-sort. The index
// depends only on x, so a boosting ensemble builds it once and shares it
// across every round and class.
type histIndex struct {
	n, nf   int
	nbins   []int       // bins per feature (<= maxHistBins)
	offsets []int       // histogram offset per feature (prefix sums of nbins)
	total   int         // sum of nbins
	thr     [][]float64 // thr[f][b]: threshold separating bin b from b+1
	codes   []uint8     // column-major: codes[f*n+i] is row i's bin on feature f
}

// buildHistIndex bins every feature of x into at most maxBins quantile
// bins. Features bin independently (each owns its codes column and thr
// slice), so large matrices fan the per-feature sorts out on the shared
// pool without affecting the result.
func buildHistIndex(x [][]float64, maxBins int) *histIndex {
	n, nf := len(x), len(x[0])
	hi := &histIndex{
		n: n, nf: nf,
		nbins:   make([]int, nf),
		offsets: make([]int, nf),
		thr:     make([][]float64, nf),
		codes:   make([]uint8, n*nf),
	}
	bin := func(f int) {
		col := make([]float64, n)
		for i, row := range x {
			col[i] = row[f]
		}
		sort.Float64s(col)
		uppers, thr := binEdges(col, maxBins)
		hi.nbins[f] = len(uppers)
		hi.thr[f] = thr
		codes := hi.codes[f*n : (f+1)*n]
		for i, row := range x {
			codes[i] = uint8(sort.SearchFloat64s(uppers, row[f]))
		}
	}
	if n*nf >= histParallelMin {
		par.ForEach(context.Background(), nf, 0, func(f int) error { bin(f); return nil })
	} else {
		for f := 0; f < nf; f++ {
			bin(f)
		}
	}
	for f := 0; f < nf; f++ {
		hi.offsets[f] = hi.total
		hi.total += hi.nbins[f]
	}
	return hi
}

// binEdges derives bin upper bounds and inter-bin thresholds from one
// sorted feature column. When the column has at most maxBins distinct
// values every value gets its own bin — the histogram then considers
// exactly the boundaries exact greedy would. Otherwise bins cut at
// equal-population quantiles, deduplicated so a heavily repeated value
// occupies a single bin. Thresholds sit midway between a bin's upper
// bound and the next value actually present, mirroring exact greedy's
// between-values cuts.
func binEdges(col []float64, maxBins int) (uppers, thr []float64) {
	n := len(col)
	distinct := 1
	for i := 1; i < n; i++ {
		if col[i] != col[i-1] {
			distinct++
		}
	}
	if distinct <= maxBins {
		uppers = make([]float64, 0, distinct)
		uppers = append(uppers, col[0])
		for i := 1; i < n; i++ {
			if col[i] != col[i-1] {
				uppers = append(uppers, col[i])
			}
		}
	} else {
		uppers = make([]float64, 0, maxBins)
		for k := 1; k < maxBins; k++ {
			v := col[k*n/maxBins]
			if len(uppers) == 0 || v > uppers[len(uppers)-1] {
				uppers = append(uppers, v)
			}
		}
		if last := col[n-1]; len(uppers) == 0 || last > uppers[len(uppers)-1] {
			uppers = append(uppers, last)
		}
	}
	thr = make([]float64, len(uppers)-1)
	for b := range thr {
		next := col[sort.SearchFloat64s(col, math.Nextafter(uppers[b], math.Inf(1)))]
		thr[b] = (uppers[b] + next) / 2
	}
	return uppers, thr
}

// nodeHist is one node's per-(feature, bin) gradient/hessian/count
// histogram, flat across features at histIndex offsets. Released
// histograms chain through next for reuse by later nodes, so a whole
// tree allocates only as many histograms as its deepest
// parent-plus-sibling chain.
type nodeHist struct {
	g, h []float64
	cnt  []int32
	next *nodeHist
}

// subtract turns nh into (nh - o) elementwise — the sibling-subtraction
// trick: a child's histogram is its parent's minus its sibling's.
func (nh *nodeHist) subtract(o *nodeHist) {
	for i := range nh.g {
		nh.g[i] -= o.g[i]
		nh.h[i] -= o.h[i]
		nh.cnt[i] -= o.cnt[i]
	}
}

// histCand is one feature's best split candidate within a node.
type histCand struct {
	gain float64
	bin  int
	ok   bool
}

// histBuilder grows one tree on a prebuilt histIndex. The node's row set
// lives in rows, partitioned in place per node with scratch staging the
// right-going rows — the same reusable-segment scheme as exactBuilder,
// so no per-node index slices are grown.
type histBuilder struct {
	hi      *histIndex
	y, h    []float64
	cfg     TreeConfig
	rows    []int32
	scratch []int32
	cand    []histCand
	pool    *nodeHist
	out     nodes[float64]
}

// fitHistogram grows a tree over the idx rows using histogram splits.
func fitHistogram(hi *histIndex, y, h []float64, idx []int, cfg TreeConfig) nodes[float64] {
	hb := &histBuilder{
		hi: hi, y: y, h: h, cfg: cfg,
		rows:    make([]int32, len(idx)),
		scratch: make([]int32, 0, len(idx)),
		cand:    make([]histCand, hi.nf),
	}
	for i, v := range idx {
		hb.rows[i] = int32(v)
	}
	hb.build(0, len(idx), 0, nil)
	return hb.out
}

func (hb *histBuilder) alloc() *nodeHist {
	if nh := hb.pool; nh != nil {
		hb.pool = nh.next
		for i := range nh.g {
			nh.g[i], nh.h[i], nh.cnt[i] = 0, 0, 0
		}
		return nh
	}
	return &nodeHist{
		g:   make([]float64, hb.hi.total),
		h:   make([]float64, hb.hi.total),
		cnt: make([]int32, hb.hi.total),
	}
}

func (hb *histBuilder) release(nh *nodeHist) {
	if nh == nil {
		return
	}
	nh.next = hb.pool
	hb.pool = nh
}

func (hb *histBuilder) leafValue(seg []int32) float64 {
	var sg, sh float64
	for _, i := range seg {
		sg += hb.y[i]
		if hb.h != nil {
			sh += hb.h[i]
		} else {
			sh++
		}
	}
	return sg / (sh + 1e-9)
}

// accumulate fills nh with seg's per-bin gradient/hessian/count sums.
// Each feature owns the disjoint [offsets[f], offsets[f]+nbins[f])
// region and accumulates rows in seg order, so fanning features out on
// the pool is bitwise identical to the serial loop at any GOMAXPROCS.
func (hb *histBuilder) accumulate(nh *nodeHist, seg []int32) {
	if len(seg)*hb.hi.nf >= histParallelMin {
		par.ForEach(context.Background(), hb.hi.nf, 0, func(f int) error {
			hb.accumFeature(nh, seg, f)
			return nil
		})
		return
	}
	for f := 0; f < hb.hi.nf; f++ {
		hb.accumFeature(nh, seg, f)
	}
}

func (hb *histBuilder) accumFeature(nh *nodeHist, seg []int32, f int) {
	off := hb.hi.offsets[f]
	codes := hb.hi.codes[f*hb.hi.n : (f+1)*hb.hi.n]
	if hb.h != nil {
		for _, i := range seg {
			b := off + int(codes[i])
			nh.g[b] += hb.y[i]
			nh.h[b] += hb.h[i]
			nh.cnt[b]++
		}
	} else {
		for _, i := range seg {
			b := off + int(codes[i])
			nh.g[b] += hb.y[i]
			nh.h[b]++
			nh.cnt[b]++
		}
	}
}

// bestSplit scans every feature's histogram for the gain-maximizing bin
// boundary. Features scan independently into their own cand slot and a
// serial ascending-feature reduction picks the winner (strict >, so ties
// break to the lowest feature and bin), making the chosen split a pure
// function of the histogram regardless of worker count.
func (hb *histBuilder) bestSplit(nh *nodeHist, nRows int) (feat, bin int, thr, gain float64, ok bool) {
	var totG, totH float64
	off0 := hb.hi.offsets[0]
	for b := 0; b < hb.hi.nbins[0]; b++ {
		totG += nh.g[off0+b]
		totH += nh.h[off0+b]
	}
	parent := gainTerm(totG, totH)
	scan := func(f int) {
		off, nb := hb.hi.offsets[f], hb.hi.nbins[f]
		c := histCand{gain: 1e-12}
		var lg, lh float64
		ln := 0
		for b := 0; b < nb-1; b++ {
			lg += nh.g[off+b]
			lh += nh.h[off+b]
			ln += int(nh.cnt[off+b])
			// An empty bin repeats the previous boundary's partition.
			if nh.cnt[off+b] == 0 {
				continue
			}
			if ln < hb.cfg.MinLeaf || nRows-ln < hb.cfg.MinLeaf {
				continue
			}
			if g := gainTerm(lg, lh) + gainTerm(totG-lg, totH-lh) - parent; g > c.gain {
				c.gain, c.bin, c.ok = g, b, true
			}
		}
		hb.cand[f] = c
	}
	if hb.hi.total >= histParallelMin/4 {
		par.ForEach(context.Background(), hb.hi.nf, 0, func(f int) error { scan(f); return nil })
	} else {
		for f := 0; f < hb.hi.nf; f++ {
			scan(f)
		}
	}
	for f, c := range hb.cand {
		if c.ok && (!ok || c.gain > gain) {
			feat, bin, gain, ok = f, c.bin, c.gain, true
		}
	}
	if ok {
		thr = hb.hi.thr[feat][bin]
	}
	return feat, bin, thr, gain, ok
}

// partition stably splits rows[lo:hi] around the bin boundary: rows with
// codes <= bin compact to the front in place, the rest stage through
// scratch. Stability keeps child row order equal to parent row order,
// which is what makes every downstream accumulation order-deterministic.
func (hb *histBuilder) partition(lo, hi, feat, bin int) int {
	codes := hb.hi.codes[feat*hb.hi.n : (feat+1)*hb.hi.n]
	left := hb.rows[lo:lo]
	rest := hb.scratch[:0]
	for _, i := range hb.rows[lo:hi] {
		if int(codes[i]) <= bin {
			left = append(left, i)
		} else {
			rest = append(rest, i)
		}
	}
	hb.scratch = rest
	copy(hb.rows[lo+len(left):hi], rest)
	return lo + len(left)
}

// build appends the subtree over rows[lo:hi] in preorder and returns its
// root's index.
func (hb *histBuilder) build(lo, hi, depth int, nh *nodeHist) int32 {
	seg := hb.rows[lo:hi]
	if depth >= hb.cfg.MaxDepth || len(seg) < 2*hb.cfg.MinLeaf {
		hb.release(nh)
		return hb.out.push(-1, 0, hb.leafValue(seg), 0)
	}
	if nh == nil {
		nh = hb.alloc()
		hb.accumulate(nh, seg)
	}
	feat, bin, thr, gain, ok := hb.bestSplit(nh, len(seg))
	if !ok {
		hb.release(nh)
		return hb.out.push(-1, 0, hb.leafValue(seg), 0)
	}
	mid := hb.partition(lo, hi, feat, bin)
	needL := depth+1 < hb.cfg.MaxDepth && mid-lo >= 2*hb.cfg.MinLeaf
	needR := depth+1 < hb.cfg.MaxDepth && hi-mid >= 2*hb.cfg.MinLeaf
	var lh, rh *nodeHist
	if needL || needR {
		// Sibling subtraction: accumulate the smaller child directly and
		// derive the larger as parent − smaller, reusing the parent's
		// arrays — O(small + bins) instead of O(small + large).
		if mid-lo <= hi-mid {
			lh = hb.alloc()
			hb.accumulate(lh, hb.rows[lo:mid])
			nh.subtract(lh)
			rh = nh
		} else {
			rh = hb.alloc()
			hb.accumulate(rh, hb.rows[mid:hi])
			nh.subtract(rh)
			lh = nh
		}
		if !needL {
			hb.release(lh)
			lh = nil
		}
		if !needR {
			hb.release(rh)
			rh = nil
		}
	} else {
		hb.release(nh)
	}
	at := hb.out.push(feat, thr, 0, gain)
	l := hb.build(lo, mid, depth+1, lh)
	r := hb.build(mid, hi, depth+1, rh)
	hb.out.left[at], hb.out.right[at] = l, r
	return at
}
