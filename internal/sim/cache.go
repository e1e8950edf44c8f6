package sim

import (
	"math/bits"
	"sync"

	"stencilmart/internal/opt"
)

// The model is a deterministic oracle: the same canonical
// (stencil pattern, workload extents, OC, params, arch) cell always
// prices to the same Result (or the same crash), so an evaluation can be
// memoized without changing any dataset, label or prediction. Whether it
// is worth memoizing depends on the traffic. Collection draws every
// sample independently from the OC's parameter space and visits each
// cell once, so inside one pass a sample almost never repeats (1.8% on
// the default corpus) and a memo only costs a miss and an insert per
// evaluation. A served request that comes back is the opposite: its
// tuning seed derives from the request, so it re-prices exactly the
// samples it priced before.
//
// The rule follows what the code can see: a compiled cell memoizes its
// samples only once Model.Evaluator finds it in the evaluator table
// again. The first lookup of a cell prices every sample directly and
// touches no counter; from the second lookup on the cell keeps a plain
// map from packed (OC, params) sample (see packSample) to cacheEntry
// under its own mutex. The map belongs to the CellEvaluator and goes
// when the evaluator table resets, which it does wholesale when it holds
// maxEvaluators cells or maxMemoSamples memoized samples in total.

// maxMemoSamples bounds the samples memoized across all cells of the
// evaluator table; the table resets at the next lookup that finds it
// full, so the overshoot is what the lookups already in flight evaluate.
const maxMemoSamples = 1 << 16

// CacheStats is a snapshot of a model's sample-memo counters.
type CacheStats struct {
	// Hits and Misses count memo lookups since the model was created;
	// evaluations of a cell on its first lookup count as neither.
	Hits, Misses uint64
	// Evictions counts memoized samples dropped by evaluator-table resets.
	Evictions uint64
	// Entries is the number of samples memoized in the live table.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cacheEntry is one memoized evaluation: the result, or the error the
// cell deterministically fails with.
type cacheEntry struct {
	res Result
	err error
}

// packSample packs a validated (OC, params) pair into one uint64, or
// reports that the pair is outside the canonical encoding (in which case
// the caller bypasses the memo and computes directly — never a wrong
// result, only a forgone memoization).
//
// Layout, low to high: OC bitmask (8 bits, values < 64); then the six
// power-of-two-or-zero numeric parameters (BlockX, BlockY, Merge,
// StreamTile, Unroll, TBDepth) as 7-bit pow2 codes; then the three small
// enums (MergeDim, StreamDim, PrefetchDepth) as 2 bits each; then UseSmem
// as 1 bit — 57 bits total. Every field occupies a disjoint bit range and
// every per-field encoding is injective over the values opt.Params
// validation admits (pow2Code distinguishes 0 from 1 from every power of
// two up to 1<<62), so distinct valid samples always pack to distinct
// keys: the collision-freedom invariant the old string runKey documented
// survives the packing.
func packSample(oc opt.Opt, p opt.Params) (uint64, bool) {
	k := uint64(oc)
	shift := uint(8)
	for _, v := range [...]int{p.BlockX, p.BlockY, p.Merge, p.StreamTile, p.Unroll, p.TBDepth} {
		c, ok := pow2Code(v)
		if !ok {
			return 0, false
		}
		k |= uint64(c) << shift
		shift += 7
	}
	for _, v := range [...]int{p.MergeDim, p.StreamDim, p.PrefetchDepth} {
		if v < 0 || v > 3 {
			return 0, false
		}
		k |= uint64(v) << shift
		shift += 2
	}
	if p.UseSmem {
		k |= 1 << shift
	}
	return k, true
}

// pow2Code injectively encodes {0} ∪ {powers of two} into [0, 64]:
// 0 -> 0 and 1<<n -> n+1. Any other value is outside the canonical
// domain.
func pow2Code(v int) (int, bool) {
	if v == 0 {
		return 0, true
	}
	if v < 0 || v&(v-1) != 0 {
		return 0, false
	}
	return bits.TrailingZeros64(uint64(v)) + 1, true
}

// sampleMemo is one revisited cell's memo: packed sample -> outcome.
type sampleMemo struct {
	mu sync.Mutex
	m  map[uint64]cacheEntry
}
