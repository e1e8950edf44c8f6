package tree

import (
	"context"
	"math"
	"slices"
	"sort"

	"stencilmart/internal/par"
)

// histIndex is the per-fit binned form of a feature matrix: every
// (row, feature) cell quantized to a uint8 quantile-bin code, plus the
// split threshold between each pair of adjacent bins. Building it costs
// one sort per feature; afterwards every node's split search is an
// O(bins) histogram scan instead of an O(n log n) re-sort. The index
// depends only on x, so a boosting ensemble builds it once and shares it
// across every round and class.
type histIndex struct {
	nf      int         // features per row
	nbins   []int       // bins per feature (<= maxHistBins)
	offsets []int       // histogram offset per feature (prefix sums of nbins)
	total   int         // sum of nbins
	thr     [][]float64 // thr[f][b]: threshold separating bin b from b+1
	// codes is row-major, codes[i*nf+f] being row i's bin on feature f: a
	// node's histogram is built a row at a time (accumulate), and a row's
	// nf codes are then one contiguous read.
	codes []uint8
}

// buildHistIndex bins every feature of x into at most maxBins quantile
// bins. Features bin independently — a sort each — so they fan out on
// the shared pool without affecting the result; each worker writes its
// own contiguous column, and the row-major transpose happens afterwards
// on one goroutine, so workers never interleave bytes of a cache line.
func buildHistIndex(x [][]float64, maxBins int) *histIndex {
	n, nf := len(x), len(x[0])
	hi := &histIndex{
		nf:      nf,
		nbins:   make([]int, nf),
		offsets: make([]int, nf),
		thr:     make([][]float64, nf),
		codes:   make([]uint8, n*nf),
	}
	cols := make([]uint8, n*nf)
	par.ForEach(context.Background(), nf, 0, func(f int) error {
		col := make([]float64, n)
		for i, row := range x {
			col[i] = row[f]
		}
		sort.Float64s(col)
		uppers, thr := binEdges(col, maxBins)
		hi.nbins[f] = len(uppers)
		hi.thr[f] = thr
		codes := cols[f*n : (f+1)*n]
		for i, row := range x {
			codes[i] = uint8(sort.SearchFloat64s(uppers, row[f]))
		}
		return nil
	})
	for f := 0; f < nf; f++ {
		hi.offsets[f] = hi.total
		hi.total += hi.nbins[f]
		for i, c := range cols[f*n : (f+1)*n] {
			hi.codes[i*nf+f] = c
		}
	}
	return hi
}

// binEdges derives bin upper bounds and inter-bin thresholds from one
// sorted feature column. When the column has at most maxBins distinct
// values every value gets its own bin — the histogram then considers
// exactly the boundaries exact greedy would. Otherwise bins cut at
// equal-population quantiles, deduplicated so a heavily repeated value
// occupies a single bin. Thresholds sit midway between a bin's upper
// bound and the next value actually present (midpoint), mirroring exact
// greedy's between-values cuts.
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
		thr[b] = midpoint(uppers[b], next)
	}
	return uppers, thr
}

// histBin is one (feature, bin) cell of a node's histogram: gradient
// sum, hessian sum and row count side by side, so an update touches one
// cache line. With unit hessians (h == nil: every regression fit) the
// hessian sum is the row count, and accumulate leaves h at zero; read it
// through histBuilder.hess.
type histBin struct {
	g, h float64
	cnt  int32
}

// nodeHist is one node's histogram, flat across features at histIndex
// offsets.
type nodeHist []histBin

// subtract turns nh into (nh - o) elementwise — the sibling-subtraction
// trick: a child's histogram is its parent's minus its sibling's.
func (nh nodeHist) subtract(o nodeHist) {
	for i := range nh {
		nh[i].g -= o[i].g
		nh[i].h -= o[i].h
		nh[i].cnt -= o[i].cnt
	}
}

// histBuilder grows trees on a prebuilt histIndex, one at a time; an
// ensemble fit keeps one for all its rounds (one per class slot in GBDT),
// so a tree allocates nothing beyond the columns fit returns. The
// node's row set lives in rows and the credit's left-out rows in oob,
// each partitioned in place per node with scratch staging the
// right-going rows — the same reusable-segment scheme as exactBuilder.
// Released histograms stack up in free for later nodes, so a fit
// allocates only as many as its deepest parent-plus-sibling chain.
type histBuilder struct {
	hi      *histIndex
	cfg     TreeConfig
	y, h    []float64
	cr      credit
	rows    []int32
	oob     []int32
	scratch []int32
	free    []nodeHist
	out     nodes[float64]
}

// newHistBuilder returns a builder over hi, or nil for a nil index (an
// exact-mode ensemble has neither).
func newHistBuilder(hi *histIndex, cfg TreeConfig) *histBuilder {
	if hi == nil {
		return nil
	}
	return &histBuilder{hi: hi, cfg: cfg}
}

// fit grows a tree over the idx rows using histogram splits, crediting
// c as it pushes leaves. The tree is built in the builder's own columns
// and returned as an exact-size copy.
func (hb *histBuilder) fit(y, h []float64, idx []int, c credit) nodes[float64] {
	hb.y, hb.h, hb.cr = y, h, c
	hb.rows, hb.oob = appendInt32(hb.rows[:0], idx), appendInt32(hb.oob[:0], c.oob)
	if n := max(len(idx), len(c.oob)); cap(hb.scratch) < n {
		hb.scratch = make([]int32, n)
	}
	o := &hb.out
	o.feature, o.left, o.right, o.thr, o.value, o.gain = o.feature[:0], o.left[:0], o.right[:0], o.thr[:0], o.value[:0], o.gain[:0]
	hb.build(0, len(idx), 0, len(c.oob), 0, nil)
	return nodes[float64]{
		feature: slices.Clone(o.feature), left: slices.Clone(o.left), right: slices.Clone(o.right),
		thr: slices.Clone(o.thr), value: slices.Clone(o.value), gain: slices.Clone(o.gain),
	}
}

func appendInt32(dst []int32, idx []int) []int32 {
	dst = slices.Grow(dst, len(idx))
	for _, v := range idx {
		dst = append(dst, int32(v))
	}
	return dst
}

func (hb *histBuilder) alloc() nodeHist {
	if n := len(hb.free); n > 0 {
		nh := hb.free[n-1]
		hb.free = hb.free[:n-1]
		clear(nh)
		return nh
	}
	return make(nodeHist, hb.hi.total)
}

func (hb *histBuilder) release(nh nodeHist) {
	if nh != nil {
		hb.free = append(hb.free, nh)
	}
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

func (hb *histBuilder) leaf(seg, oob []int32) int32 {
	v := hb.leafValue(seg)
	creditLeaf(&hb.cr, v, seg, oob)
	return hb.out.push(-1, 0, v, 0)
}

// accumulate adds seg's rows into nh, one row at a time: the row's
// gradient is loaded once and added into one cell per feature — nf
// independent read-modify-writes, where a feature-at-a-time loop over
// few-bin columns chains every update behind the previous one's store.
// Each cell still sums its rows in seg order, so the histogram is bit
// for bit the column-wise one. One goroutine builds it: features' cell
// regions are a few dozen bytes and share cache lines, so fanning them
// out made a fit slower on two cores than on one.
func (hb *histBuilder) accumulate(nh nodeHist, seg []int32) {
	offsets := hb.hi.offsets
	nf := len(offsets)
	for _, i := range seg {
		codes := hb.hi.codes[int(i)*nf:][:nf]
		y := hb.y[i]
		if hb.h == nil {
			for f, off := range offsets {
				cell := &nh[off+int(codes[f])]
				cell.g += y
				cell.cnt++
			}
			continue
		}
		h := hb.h[i]
		for f, off := range offsets {
			cell := &nh[off+int(codes[f])]
			cell.g += y
			cell.h += h
			cell.cnt++
		}
	}
}

// hess is a cell's hessian sum. Unit hessians sum to the row count
// exactly (integers far below 2^53, through sibling subtraction too).
func (hb *histBuilder) hess(c *histBin) float64 {
	if hb.h == nil {
		return float64(c.cnt)
	}
	return c.h
}

// bestSplit scans every feature's histogram for the gain-maximizing bin
// boundary, features and bins ascending; strict > breaks ties to the
// lowest feature and bin.
func (hb *histBuilder) bestSplit(nh nodeHist, nRows int) (feat, bin int, thr, gain float64, ok bool) {
	var totG, totH float64
	for b := range nh[:hb.hi.nbins[0]] {
		totG += nh[b].g
		totH += hb.hess(&nh[b])
	}
	parent := gainTerm(totG, totH)
	gain = 1e-12
	for f, off := range hb.hi.offsets {
		var lg, lh float64
		ln := 0
		cells := nh[off : off+hb.hi.nbins[f]-1] // the last bin has no boundary after it
		for b := range cells {
			c := &cells[b]
			lg += c.g
			lh += hb.hess(c)
			ln += int(c.cnt)
			// An empty bin repeats the previous boundary's partition.
			if c.cnt == 0 {
				continue
			}
			if ln < hb.cfg.MinLeaf || nRows-ln < hb.cfg.MinLeaf {
				continue
			}
			if g := gainTerm(lg, lh) + gainTerm(totG-lg, totH-lh) - parent; g > gain {
				feat, bin, gain, ok = f, b, g, true
			}
		}
	}
	if ok {
		thr = hb.hi.thr[feat][bin]
	}
	return feat, bin, thr, gain, ok
}

// partition stably splits seg around the bin boundary and returns how
// many rows go left: rows with codes <= bin compact to the front in
// place, the rest stage through scratch. Stability keeps child row order
// equal to parent row order, which is what makes every downstream
// accumulation order-deterministic. Which side a row takes is close to a
// coin flip, so the loop stores the row on both sides and advances one
// of them rather than branch on it.
//
// The index bins every row of x, so for each of them code <= bin exactly
// when the value is <= the split's threshold (midpoint): a row routed
// here reaches the leaf that descending the finished tree would.
func (hb *histBuilder) partition(seg []int32, feat, bin int) int {
	nf := hb.hi.nf
	rest := hb.scratch[:len(seg)]
	nl, nr := 0, 0
	for _, i := range seg {
		seg[nl], rest[nr] = i, i
		right := 0
		if int(hb.hi.codes[int(i)*nf+feat]) > bin {
			right = 1
		}
		nl += 1 - right
		nr += right
	}
	copy(seg[nl:], rest[:nr])
	return nl
}

// build appends the subtree over rows[lo:hi] in preorder and returns its
// root's index; oob[olo:ohi] are the left-out rows that reach it, routed
// but never counted.
func (hb *histBuilder) build(lo, hi, olo, ohi, depth int, nh nodeHist) int32 {
	seg, oob := hb.rows[lo:hi], hb.oob[olo:ohi]
	if depth >= hb.cfg.MaxDepth || len(seg) < 2*hb.cfg.MinLeaf {
		hb.release(nh)
		return hb.leaf(seg, oob)
	}
	if nh == nil {
		nh = hb.alloc()
		hb.accumulate(nh, seg)
	}
	feat, bin, thr, gain, ok := hb.bestSplit(nh, len(seg))
	if !ok {
		hb.release(nh)
		return hb.leaf(seg, oob)
	}
	mid := lo + hb.partition(seg, feat, bin)
	omid := olo + hb.partition(oob, feat, bin)
	needL := depth+1 < hb.cfg.MaxDepth && mid-lo >= 2*hb.cfg.MinLeaf
	needR := depth+1 < hb.cfg.MaxDepth && hi-mid >= 2*hb.cfg.MinLeaf
	var lh, rh nodeHist
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
	l := hb.build(lo, mid, olo, omid, depth+1, lh)
	r := hb.build(mid, hi, omid, ohi, depth+1, rh)
	hb.out.left[at], hb.out.right[at] = l, r
	return at
}
