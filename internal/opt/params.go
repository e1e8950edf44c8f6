package opt

import (
	"fmt"
	"math"
	"math/rand"
)

// Params is one parameter setting for a stencil kernel under an OC.
// Numeric parameters are restricted to powers of two, Boolean parameters
// to {0,1}, and enumeration parameters start at 1 with unit stride,
// following Sec. IV-E. Fields irrelevant to the OC are held at their
// neutral values so every setting encodes into a fixed-width vector.
type Params struct {
	// BlockX and BlockY are the thread-block dimensions (powers of two).
	BlockX, BlockY int
	// Merge is the block/cyclic merging factor (power of two, 1 = off).
	Merge int
	// MergeDim is the merged dimension as a 1-based enum (1=x, 2=y, 3=z);
	// 0 when merging is off.
	MergeDim int
	// StreamTile is the concurrent-streaming tile length along the
	// streaming dimension (power of two); 0 when ST is off.
	StreamTile int
	// StreamDim is the streaming dimension as a 1-based enum; 0 when ST
	// is off. 2-D stencils always stream dimension 2 (y).
	StreamDim int
	// Unroll is the register-reuse unroll factor under ST (power of two).
	Unroll int
	// UseSmem selects shared-memory tiling under ST.
	UseSmem bool
	// TBDepth is the temporal-blocking degree (power of two >= 2); 0 when
	// TB is off.
	TBDepth int
	// PrefetchDepth is the PR lookahead as an enum (1 or 2); 0 when PR is
	// off.
	PrefetchDepth int
}

// Candidate values for each tunable. Block sizes keep BlockX*BlockY within
// the 1024-thread block limit; Space filters invalid pairs.
var (
	blockXVals   = []int{16, 32, 64, 128}
	blockYVals   = []int{1, 2, 4, 8, 16}
	mergeVals    = []int{2, 4, 8}
	streamVals   = []int{16, 32, 64, 128, 256}
	unrollVals   = []int{1, 2, 4}
	tbDepthVals  = []int{2, 4}
	prefetchVals = []int{1, 2}
)

// Sample draws one random valid parameter setting for the OC.
func Sample(oc Opt, dims int, rng *rand.Rand) Params {
	var p Params
	for {
		p.BlockX = pick(blockXVals, rng)
		p.BlockY = pick(blockYVals, rng)
		if p.BlockX*p.BlockY <= 1024 && p.BlockX*p.BlockY >= 32 {
			break
		}
	}
	if oc.Has(BM) || oc.Has(CM) {
		p.Merge = pick(mergeVals, rng)
		p.MergeDim = 1 + rng.Intn(dims)
	} else {
		p.Merge = 1
	}
	if oc.Has(ST) {
		p.StreamTile = pick(streamVals, rng)
		if dims == 3 {
			p.StreamDim = 1 + rng.Intn(3)
		} else {
			p.StreamDim = 2
		}
		p.Unroll = pick(unrollVals, rng)
		p.UseSmem = rng.Intn(2) == 1
	} else {
		p.Unroll = 1
	}
	if oc.Has(TB) {
		p.TBDepth = pick(tbDepthVals, rng)
	}
	if oc.Has(PR) {
		p.PrefetchDepth = pick(prefetchVals, rng)
	}
	return p
}

func pick(vals []int, rng *rand.Rand) int { return vals[rng.Intn(len(vals))] }

// Validate checks that the setting is consistent with the OC and the
// Sec. IV-E parameter-type rules.
func (p Params) Validate(oc Opt, dims int) error {
	if !isPow2(p.BlockX) || !isPow2(p.BlockY) {
		return fmt.Errorf("opt: block %dx%d not powers of two", p.BlockX, p.BlockY)
	}
	if t := p.BlockX * p.BlockY; t < 32 || t > 1024 {
		return fmt.Errorf("opt: block size %d outside [32,1024]", t)
	}
	merging := oc.Has(BM) || oc.Has(CM)
	if merging {
		if p.Merge < 2 || !isPow2(p.Merge) {
			return fmt.Errorf("opt: merge factor %d invalid under %s", p.Merge, oc)
		}
		if p.MergeDim < 1 || p.MergeDim > dims {
			return fmt.Errorf("opt: merge dim %d outside [1,%d]", p.MergeDim, dims)
		}
	} else if p.Merge > 1 || p.MergeDim != 0 {
		return fmt.Errorf("opt: merge parameters set without BM/CM in %s", oc)
	}
	if oc.Has(ST) {
		if p.StreamTile < 1 || !isPow2(p.StreamTile) {
			return fmt.Errorf("opt: stream tile %d invalid", p.StreamTile)
		}
		if p.StreamDim < 1 || p.StreamDim > dims {
			return fmt.Errorf("opt: stream dim %d outside [1,%d]", p.StreamDim, dims)
		}
		if p.Unroll < 1 || !isPow2(p.Unroll) {
			return fmt.Errorf("opt: unroll %d invalid", p.Unroll)
		}
	} else if p.StreamTile != 0 || p.StreamDim != 0 || p.UseSmem || p.Unroll > 1 {
		return fmt.Errorf("opt: streaming parameters set without ST in %s", oc)
	}
	if oc.Has(TB) {
		if p.TBDepth < 2 || !isPow2(p.TBDepth) {
			return fmt.Errorf("opt: TB depth %d invalid", p.TBDepth)
		}
	} else if p.TBDepth != 0 {
		return fmt.Errorf("opt: TB depth set without TB in %s", oc)
	}
	if oc.Has(PR) {
		if p.PrefetchDepth < 1 || p.PrefetchDepth > 2 {
			return fmt.Errorf("opt: prefetch depth %d outside [1,2]", p.PrefetchDepth)
		}
	} else if p.PrefetchDepth != 0 {
		return fmt.Errorf("opt: prefetch depth set without PR in %s", oc)
	}
	return nil
}

// ParamFeatureNames lists the encoded parameter feature layout. Numeric
// power-of-two parameters are log2-transformed for training stability
// (Sec. IV-E); Booleans are 0/1; enums keep their 1-based values.
var ParamFeatureNames = []string{
	"log2BlockX", "log2BlockY", "log2Merge", "mergeDim",
	"log2StreamTile", "streamDim", "log2Unroll", "useSmem",
	"log2TBDepth", "prefetchDepth",
}

// EncodeInto writes the setting's fixed-width feature vector into dst
// (len(ParamFeatureNames)) without allocating, for callers encoding into
// arena scratch on the serving hot path.
func (p Params) EncodeInto(dst []float64) {
	if len(dst) != len(ParamFeatureNames) {
		panic(fmt.Sprintf("opt: encode dst %d, want %d", len(dst), len(ParamFeatureNames)))
	}
	dst[0] = log2f(p.BlockX)
	dst[1] = log2f(p.BlockY)
	dst[2] = log2f(p.Merge)
	dst[3] = float64(p.MergeDim)
	dst[4] = log2f(p.StreamTile)
	dst[5] = float64(p.StreamDim)
	dst[6] = log2f(p.Unroll)
	dst[7] = boolf(p.UseSmem)
	dst[8] = log2f(p.TBDepth)
	dst[9] = float64(p.PrefetchDepth)
}

func log2f(v int) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log2(float64(v))
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
