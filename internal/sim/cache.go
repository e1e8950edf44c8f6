package sim

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"stencilmart/internal/opt"
)

// The model is a deterministic oracle: the same canonical
// (stencil pattern, workload extents, OC, params, arch) cell always
// prices to the same Result (or the same crash). Profiling, the
// baselines and the tuners keep re-evaluating identical cells — random
// parameter search over small power-of-two spaces collides constantly,
// and the equal-budget comparisons re-price the very points profiling
// already visited — so evaluations are memoized.
//
// The cache is a sharded, fixed-size open-addressed table keyed on a
// comparable packed struct: the compiled evaluator's cell id plus the
// (OC, params) sample packed into one uint64 (see packSample). Lookups
// hash with an inline integer mix — no per-lookup hasher object, no key
// string, no allocation of any kind — and inserts into a full probe
// window overwrite in place, so there is no map-iteration eviction and
// memory stays flat under corpus-scale sweeps. Sharding keeps concurrent
// profiling workers off a single lock.
//
// Caching is invisible to results by construction (values are exact
// first-computation bits and the model is deterministic), so eviction
// policy only affects the hit rate, never any dataset, label or
// prediction.

// DefaultCacheEntries is the total entry bound of a Model's cache.
const DefaultCacheEntries = 1 << 16

// cacheShards is the shard count; a power of two so the hash maps to a
// shard with a mask.
const cacheShards = 64

// probeWindow bounds the linear-probe distance of one lookup; an insert
// that finds the whole window occupied overwrites its first slot.
const probeWindow = 8

// CacheStats is a snapshot of a model cache's counters.
type CacheStats struct {
	// Hits and Misses count lookups since the cache was created.
	Hits, Misses uint64
	// Evictions counts entries dropped to respect the size bound.
	Evictions uint64
	// Entries is the current number of cached evaluations.
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

// evalKey identifies one memoized evaluation: the compiled cell
// (evaluator) id and the packed (OC, params) sample. Comparable, 16
// bytes, no pointers.
type evalKey struct {
	sample uint64
	cell   uint32
}

// hash mixes the key into a well-distributed uint64 (MurmurHash3's
// 64-bit final mix, seeded with the cell id so samples of
// different cells land on different shards).
func (k evalKey) hash() uint64 {
	h := k.sample ^ (uint64(k.cell)+1)*0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}

// packSample packs a validated (OC, params) pair into one uint64, or
// reports that the pair is outside the canonical encoding (in which case
// the caller bypasses the cache and computes directly — never a wrong
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

// cacheSlot is one open-addressed table slot.
type cacheSlot struct {
	key  evalKey
	ent  cacheEntry
	used bool
}

type cacheShard struct {
	mu    sync.Mutex
	slots []cacheSlot // power-of-two length, preallocated
}

// runCache is the sharded, fixed-size open-addressed memoization table.
type runCache struct {
	hits, misses, evictRun atomic.Uint64
	entries                atomic.Int64
	shards                 [cacheShards]cacheShard
}

func newRunCache(capacity int) *runCache {
	if capacity < 1 {
		capacity = DefaultCacheEntries
	}
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	// Round the per-shard slot count up to a power of two so probe
	// positions mask instead of mod.
	slots := 1
	for slots < per {
		slots <<= 1
	}
	c := &runCache{}
	for i := range c.shards {
		c.shards[i].slots = make([]cacheSlot, slots)
	}
	return c
}

// probe computes the shard and first slot index for a key hash.
func (c *runCache) probe(h uint64) (*cacheShard, uint64) {
	return &c.shards[h&(cacheShards-1)], h >> 6
}

func (c *runCache) get(key evalKey) (cacheEntry, bool) {
	s, start := c.probe(key.hash())
	mask := uint64(len(s.slots) - 1)
	window := probeWindow
	if window > len(s.slots) {
		window = len(s.slots)
	}
	s.mu.Lock()
	for i := 0; i < window; i++ {
		sl := &s.slots[(start+uint64(i))&mask]
		if !sl.used {
			break
		}
		if sl.key == key {
			e := sl.ent
			s.mu.Unlock()
			c.hits.Add(1)
			return e, true
		}
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return cacheEntry{}, false
}

func (c *runCache) put(key evalKey, e cacheEntry) {
	s, start := c.probe(key.hash())
	mask := uint64(len(s.slots) - 1)
	window := probeWindow
	if window > len(s.slots) {
		window = len(s.slots)
	}
	s.mu.Lock()
	for i := 0; i < window; i++ {
		sl := &s.slots[(start+uint64(i))&mask]
		if !sl.used {
			sl.key, sl.ent, sl.used = key, e, true
			s.mu.Unlock()
			c.entries.Add(1)
			return
		}
		if sl.key == key {
			s.mu.Unlock()
			return
		}
	}
	// Window full: overwrite the first probed slot in place. The evicted
	// value was a deterministic function of its key, so the choice
	// affects only the hit rate — never a computed result.
	sl := &s.slots[start&mask]
	sl.key, sl.ent = key, e
	s.mu.Unlock()
	c.evictRun.Add(1)
}

// stats snapshots the counters. Entries is maintained atomically on
// insert, so polling from /statsz is O(1) — no lock sweep over shards.
func (c *runCache) stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictRun.Load(),
		Entries:   int(c.entries.Load()),
	}
}
