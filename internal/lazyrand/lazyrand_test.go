package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// diffSeeds exercise the library's seed normalisation: the % (2^31-1)
// reduction, the negative lift, and the zero replacement (0 itself and
// both multiples of the modulus).
var diffSeeds = []int64{
	0, 1, -1, 2, 42, 89482311,
	1<<31 - 1, -(1<<31 - 1), 1 << 31, 1<<31 - 2, -(1 << 31),
	1<<40 + 12345, -(1<<40 + 12345), 3 * (1<<31 - 1), 1<<62 + 7,
	math.MaxInt64, math.MinInt64, 20220530, -6148914691236517205,
}

func mustMatch(t *testing.T, lazy *Source, seed int64, draws int) {
	t.Helper()
	lib := rand.NewSource(seed).(rand.Source64)
	for j := 0; j < draws; j++ {
		if got, want := lazy.Uint64(), lib.Uint64(); got != want {
			t.Fatalf("seed %d draw %d: got %#x, library %#x", seed, j, got, want)
		}
	}
}

// TestSourceMatchesLibrary draws far enough per seed to cross the 273
// and 334 materialisation thresholds and wrap the 607-word register
// several times.
func TestSourceMatchesLibrary(t *testing.T) {
	for _, seed := range diffSeeds {
		mustMatch(t, NewSource(seed), seed, 3200)
	}
}

// TestReseedLeaksNoStaleWords re-seeds one source after every draw count
// from 0 to 350 — before, at and after each threshold — so a word the
// previous stream wrote and the new one failed to rebuild would show.
func TestReseedLeaksNoStaleWords(t *testing.T) {
	s := NewSource(7)
	for n := 0; n <= 350; n++ {
		for j := 0; j < n; j++ {
			s.Uint64()
		}
		seed := int64(n)*1000003 - 99
		s.Seed(seed)
		mustMatch(t, s, seed, 700)
	}
}

// TestInt63MasksTheSignBit pins Int63 to the library's.
func TestInt63MasksTheSignBit(t *testing.T) {
	lazy, lib := NewSource(-5), rand.NewSource(-5)
	for j := 0; j < 1000; j++ {
		if got, want := lazy.Int63(), lib.Int63(); got != want || got < 0 {
			t.Fatalf("draw %d: got %d, library %d", j, got, want)
		}
	}
}

// TestRandMethodsMatchLibrary runs the call shapes the product uses
// (opt.Sample's Intn, the GA's Float64, shuffles) through rand.New on
// both sources, with a re-seed through the Rand in the middle.
func TestRandMethodsMatchLibrary(t *testing.T) {
	lazy, lib := rand.New(NewSource(11)), rand.New(rand.NewSource(11))
	for round, seed := range []int64{11, -3, 1 << 45} {
		if round > 0 {
			lazy.Seed(seed)
			lib.Seed(seed)
		}
		for j := 0; j < 400; j++ {
			n := j%37 + 1
			if got, want := lazy.Intn(n), lib.Intn(n); got != want {
				t.Fatalf("seed %d Intn(%d) #%d: got %d, library %d", seed, n, j, got, want)
			}
			if got, want := lazy.Float64(), lib.Float64(); got != want {
				t.Fatalf("seed %d Float64 #%d: got %v, library %v", seed, j, got, want)
			}
			if got, want := lazy.Int63n(1<<40+int64(j)), lib.Int63n(1<<40+int64(j)); got != want {
				t.Fatalf("seed %d Int63n #%d: got %d, library %d", seed, j, got, want)
			}
		}
		got, want := lazy.Perm(50), lib.Perm(50)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d Perm: got %v, library %v", seed, got, want)
			}
		}
		if g, w := lazy.NormFloat64(), lib.NormFloat64(); g != w {
			t.Fatalf("seed %d NormFloat64: got %v, library %v", seed, g, w)
		}
	}
}

// TestMulmodMatchesRemainder checks the Mersenne fold against % for every
// jump-table entry times the chain starts at the edges of [1, M-1], the
// library's zero replacement and the normalised extreme seeds.
func TestMulmodMatchesRemainder(t *testing.T) {
	starts := []uint64{1, 2, lehmerA, 89482311, lehmerM - 2, lehmerM - 1,
		normalize(math.MinInt64), normalize(math.MaxInt64)}
	for k, a := range jump {
		for _, x0 := range starts {
			if got, want := mulmod(a, x0), a*x0%lehmerM; got != want {
				t.Fatalf("jump[%d]=%d x0=%d: mulmod %d, %% gives %d", k, a, x0, got, want)
			}
		}
	}
}

func FuzzSourceMatchesLibrary(f *testing.F) {
	for _, seed := range diffSeeds {
		f.Add(seed, uint16(700))
	}
	f.Add(int64(5), uint16(0))
	f.Add(int64(5), uint16(273))
	f.Add(int64(5), uint16(334))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		// A dirty register first: the fuzzed stream starts from whatever
		// the previous one left behind, as a re-seeded source does.
		s := NewSource(^seed)
		for j := 0; j < int(draws%400); j++ {
			s.Uint64()
		}
		s.Seed(seed)
		mustMatch(t, s, seed, int(draws)%4000)
	})
}

var sink int

// BenchmarkSeedThenDraw is the per-OC shape of collection: seed, then
// ~100 small Intn draws.
func BenchmarkSeedThenDraw(b *testing.B) {
	run := func(b *testing.B, rng *rand.Rand) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng.Seed(int64(i)*1000003 + 1)
			for j := 0; j < 100; j++ {
				sink += rng.Intn(7)
			}
		}
	}
	b.Run("library", func(b *testing.B) { run(b, rand.New(rand.NewSource(1))) })
	b.Run("lazy", func(b *testing.B) { run(b, rand.New(NewSource(1))) })
}
