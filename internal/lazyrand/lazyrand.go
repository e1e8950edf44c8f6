// Package lazyrand is math/rand's seeded generator with an O(1) Seed.
//
// rand.NewSource(seed) fills a 607-word additive lagged-Fibonacci
// register by walking a Lehmer chain x -> 48271*x mod (2^31-1) for 1,841
// dependent steps; a stream re-seeded per (stencil, arch, OC) cell to
// draw ~100 numbers spends most of its time in that walk. Source yields
// the same stream, bit for bit, but builds a register word when a draw
// first reads it: word i comes from chain positions 21+3i..23+3i, and
// position k is A^k * x0 mod (2^31-1), so a table of A^k makes a word
// three independent multiply-mods that depend on nothing drawn before.
//
// Draw j since Seed reads feed word (333-j) mod 607 and tap word
// (606-j) mod 607 and writes their sum over the feed word. The feed word
// is an untouched seed word while j < 334, the tap word while j < 273;
// from draw 334 on the register is complete and this is the library's loop.
package lazyrand

import "math/rand"

const (
	regLen  = 607
	regTap  = 273
	lehmerM = 1<<31 - 1 // the seeding chain's modulus
	lehmerA = 48271     // and its multiplier
)

var (
	// jump[3i+k] is A^(21+3i+k) mod M, chain position 21+3i+k: the chain
	// runs 20 steps before word 0 and three per word, the first of a
	// triple being the word's top bits.
	jump [3 * regLen]uint64
	// cooked is the library's additive constant per register word.
	cooked [regLen]int64
)

func init() {
	a := uint64(1)
	for k := 1; k < 21+len(jump); k++ {
		a = a * lehmerA % lehmerM
		if k >= 21 {
			jump[k-21] = a
		}
	}
	// The library gives its own seed register back: output j is
	// out[j-607] + out[j-273], where the 607 outputs "before" the first
	// are the seed words in the order the feed index visits them, so the
	// recurrence runs backwards from the first 607 draws of any stream.
	const probe = 1
	lib := rand.NewSource(probe).(rand.Source64)
	var out [2 * regLen]int64 // out[regLen+j] is draw j
	for j := 0; j < regLen; j++ {
		out[regLen+j] = int64(lib.Uint64())
	}
	x0 := normalize(probe)
	for j := regLen - 1; j >= 0; j-- {
		out[j] = out[j+regLen] - out[j+regLen-regTap]
		i := (2*regLen - regTap - 1 - j) % regLen // draw j's feed word held out[j]
		cooked[i] = out[j] ^ lehmerWord(x0, i)
	}
}

// normalize maps a seed onto the chain's start the way the library does.
func normalize(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lehmerWord is register word i before the additive constant: three
// consecutive chain values at bit offsets 40, 20 and 0, each its own
// multiply-mod from x0 so the three run side by side.
func lehmerWord(x0 uint64, i int) int64 {
	j := jump[3*i : 3*i+3 : 3*i+3]
	return int64(mulmod(j[0], x0))<<40 ^ int64(mulmod(j[1], x0))<<20 ^ int64(mulmod(j[2], x0))
}

// mulmod is a*b mod M for a, b in [1, M-1] by the Mersenne fold
// x&M + x>>31, which keeps x's residue mod M: the first fold leaves
// x < 2^32, the second x <= M. M is prime and neither factor is 0 mod M,
// so x is not M either: it is the residue.
func mulmod(a, b uint64) uint64 {
	x := a * b
	x = x&lehmerM + x>>31
	return x&lehmerM + x>>31
}

// Source is a rand.Source64 whose stream equals rand.NewSource's for
// every seed. Like the library's, it is not safe for concurrent use.
type Source struct {
	vec       [regLen]int64
	x0        uint64 // normalized seed
	drawn     int    // draws since Seed, counted up to regLen-regTap
	tap, feed int
}

// NewSource returns a source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed. No register word survives it: every
// word is rebuilt from the new seed before the first draw that reads it.
func (s *Source) Seed(seed int64) {
	s.x0, s.drawn, s.tap, s.feed = normalize(seed), 0, 0, regLen-regTap
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += regLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += regLen
	}
	if s.drawn < regLen-regTap {
		s.vec[s.feed] = lehmerWord(s.x0, s.feed) ^ cooked[s.feed]
		if s.drawn < regTap {
			s.vec[s.tap] = lehmerWord(s.x0, s.tap) ^ cooked[s.tap]
		}
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
