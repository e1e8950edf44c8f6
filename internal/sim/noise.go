package sim

import (
	"math"
	"sync"

	"stencilmart/internal/gen"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

// noiseConfig sets the standard deviations of the lognormal terms the
// model layers over the analytical time. Each term is deterministic in
// its key, so repeated simulations of the same configuration agree
// exactly (the substrate is a reproducible oracle). The weights are
// calibration constants: New builds the one calibrated model, and only
// the simulator's tests build a model with other weights.
//
// The stencil-dependent terms (StencilArch, StencilOC) are smooth random
// projections of the stencil's geometric features rather than hashes of
// its identity: real unmodeled microarchitectural effects are systematic
// functions of the access pattern, which is precisely what makes the
// paper's regressors able to predict them (6% MAPE) while still making
// "which GPU wins" stencil-dependent (Figs. 4, 14, 15).
type noiseConfig struct {
	// Measurement varies with the full (stencil, OC, params, arch) key —
	// run-to-run measurement jitter, unpredictable by construction.
	Measurement float64
	// StencilArch scales a smooth per-architecture projection of the
	// stencil features — per-stencil architectural affinity beyond the
	// modeled mechanisms.
	StencilArch float64
	// StencilOC scales a smooth per-OC projection of the stencil
	// features — access-pattern/optimization interaction beyond the
	// modeled mechanisms; shared across architectures, which is what
	// makes pairwise-OC correlations portable between GPUs (Fig. 3).
	StencilOC float64
	// OCArch varies with (OC, arch) — per-architecture optimization
	// quirks (hash-keyed; with only 30x4 cells it is learnable from
	// training data regardless).
	OCArch float64
}

// defaultNoise returns the calibrated noise configuration; see DESIGN.md
// section 5.
func defaultNoise() noiseConfig {
	return noiseConfig{
		Measurement: 0.03,
		StencilArch: 0.18,
		StencilOC:   0.06,
		OCArch:      0.04,
	}
}

// phi embeds a stencil into a standardized geometric feature vector: the
// raw material for the smooth affinity projections. Each component is
// centered and scaled by its population spread over random generator
// corpora (constants measured once over 600 mixed stencils), so the
// components have roughly zero mean and unit variance.
func phi(s stencil.Stencil) [8]float64 {
	n := float64(s.NumPoints())
	order := s.Order()
	r := float64(order)
	var sumD, maxD, first, shell float64
	for _, p := range s.Points {
		d := p.Euclidean()
		sumD += d
		if d > maxD {
			maxD = d
		}
		o := p.Order()
		if o == 1 {
			first++
		}
		if o == order {
			shell++
		}
	}
	dims3 := -1.0
	if s.Dims == 3 {
		dims3 = 1
	}
	lines := float64(stencil.LineCount(s))
	return [8]float64{
		(r - 2.5) / 1.1,
		(math.Cbrt(n) - 2.6) / 1.0,
		(sumD/n - 2.0) / 0.9,
		(maxD - 3.3) / 1.5,
		dims3,
		(math.Log2(lines) - 2.5) / 1.5,
		(first/n - 0.45) / 0.25,
		(shell/n - 0.30) / 0.20,
	}
}

// direction is one projection key's pseudo-random direction w_key (eight
// deterministic Gaussians, with the square root of their squared norm)
// and the mean and spread of the unit projection w_key·phi/|w_key| over
// the reference corpus. phi components are correlated, so the spread of
// a raw projection depends on its direction; dividing by the reference
// spread makes every key's affinity term comparable.
type direction struct {
	w                   [8]float64
	sqrtNorm, mean, std float64
}

// project standardizes the unit projection of the embedding f.
func (d *direction) project(f *[8]float64) float64 {
	return (d.raw(f) - d.mean) / d.std
}

func (d *direction) raw(f *[8]float64) float64 {
	var z float64
	for i := range f {
		z += d.w[i] * f[i]
	}
	return z / d.sqrtNorm
}

// The reference corpus is a fixed mixed stencil population, kept only as
// its embeddings.
const refCount2, refCount3, refSeed = 200, 200, 20220530

var (
	refEmbeddings = sync.OnceValue(func() [][8]float64 {
		corpus, err := gen.MixedCorpus(refCount2, refCount3, stencil.MaxOrder, refSeed)
		if err != nil {
			panic("sim: reference corpus generation failed: " + err.Error())
		}
		f := make([][8]float64, len(corpus))
		for i, s := range corpus {
			f[i] = phi(s)
		}
		return f
	})
	directions sync.Map // key -> *direction, built once per key
)

// directionOf returns the key's direction, building it on first use.
// Racing first uses build identical directions and keep one.
func directionOf(key string) *direction {
	if v, ok := directions.Load(key); ok {
		return v.(*direction)
	}
	d := &direction{}
	var norm float64
	for i := range d.w {
		d.w[i] = gauss(key, byte(i), "", "")
		norm += d.w[i] * d.w[i]
	}
	d.sqrtNorm = math.Sqrt(norm)
	ref := refEmbeddings()
	var m, m2 float64
	for i := range ref {
		z := d.raw(&ref[i])
		m += z
		m2 += z * z
	}
	n := float64(len(ref))
	d.mean = m / n
	d.std = math.Sqrt(m2/n - d.mean*d.mean)
	if d.std < 1e-9 {
		d.std = 1
	}
	v, _ := directions.LoadOrStore(key, d)
	return v.(*direction)
}

// archNoise is everything a cell's noise constants need besides the
// stencil's embedding, resolved once per architecture name: the
// "arch:"+name direction, each OC's "oc:"+oc direction, and
// gauss("", oc, "", name) per OC.
type archNoise struct {
	arch   *direction
	oc     [64]*direction
	ocArch [64]float64
}

var archNoises sync.Map // arch name -> *archNoise

func archNoiseOf(name string) *archNoise {
	if v, ok := archNoises.Load(name); ok {
		return v.(*archNoise)
	}
	a := &archNoise{arch: directionOf("arch:" + name)}
	for _, oc := range opt.Combinations() {
		a.oc[oc] = directionOf("oc:" + string(byte(oc)))
		a.ocArch[oc] = gauss("", byte(oc), "", name)
	}
	v, _ := archNoises.LoadOrStore(name, a)
	return v.(*archNoise)
}

// patternKey canonicalizes the access pattern so renamed but identical
// stencils receive identical noise.
func patternKey(s stencil.Stencil) string {
	b := make([]byte, 0, 1+3*len(s.Points))
	b = append(b, byte(s.Dims))
	for _, p := range s.Points {
		b = append(b, byte(int8(p.Dx)), byte(int8(p.Dy)), byte(int8(p.Dz)))
	}
	return string(b)
}

// paramsBytes is the params' noise-key bytes: each field truncated to a
// byte, then UseSmem.
func paramsBytes(p opt.Params) [10]byte {
	b := [10]byte{byte(p.BlockX), byte(p.BlockY), byte(p.Merge), byte(p.MergeDim), byte(p.StreamTile),
		byte(p.StreamDim), byte(p.Unroll), byte(p.TBDepth), byte(p.PrefetchDepth)}
	if p.UseSmem {
		b[9] = 1
	}
	return b
}

// FNV-1a 64-bit constants, inlined so the compiled evaluation path can
// hash without allocating a hash.Hash64 per lookup. fnv1aByte/fnv1aString
// advance a running state exactly as hash/fnv's sum64a.Write does, so any
// split of one byte sequence across calls produces the digest a single
// fnv.New64a().Write of the concatenation would.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1aByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnv1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// boxMullerFrom turns a finished FNV-1a state into a standard-normal
// deviate: two uniforms from disjoint hash halves (the second re-hashed
// for independence), then the Box-Muller transform.
func boxMullerFrom(x uint64) float64 {
	h2 := uint64(fnvOffset64)
	for shift := uint(0); shift < 64; shift += 8 {
		h2 = fnv1aByte(h2, byte(x>>shift))
	}
	y := h2
	u1 := (float64(x>>11) + 0.5) / (1 << 53)
	u2 := (float64(y>>11) + 0.5) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// gauss maps a composite key to a standard-normal deviate via FNV-1a
// hashing and the Box-Muller transform: each part is hashed, then a zero
// byte, in argument order.
func gauss(a string, b byte, c, d string) float64 {
	h := fnv1aByte(fnv1aString(uint64(fnvOffset64), a), 0)
	h = fnv1aByte(fnv1aByte(h, b), 0)
	h = fnv1aByte(fnv1aString(h, c), 0)
	h = fnv1aByte(fnv1aString(h, d), 0)
	return boxMullerFrom(h)
}
