// Package opt models the six stencil optimizations of Table I, the
// constraints that govern how they combine, the enumeration of all valid
// optimization combinations (OCs), and each OC's tunable parameter space
// (numeric power-of-two, Boolean and enumeration parameters, Sec. IV-E).
package opt

import (
	"fmt"
	"strings"
)

// Opt is a bitmask of enabled optimizations.
type Opt uint8

// The six optimizations of Table I.
const (
	// ST is streaming: 2.5-D spatial blocking over a streaming dimension
	// with concurrent tile traversal and loop unrolling.
	ST Opt = 1 << iota
	// TB is temporal blocking: fusing time steps with redundant halo loads.
	TB
	// BM is block merging: each thread computes a block of adjacent
	// output points.
	BM
	// CM is cyclic merging: each thread computes points separated by a
	// fixed stride.
	CM
	// RT is retiming: decomposing the stencil into accumulating
	// sub-computations to homogenize register pressure (requires ST).
	RT
	// PR is prefetching: overlapping next-iteration loads with current
	// computation (requires ST).
	PR
)

// All lists the individual optimizations in canonical naming order.
var All = []Opt{ST, TB, BM, CM, RT, PR}

// abbrev maps each optimization to its Table I abbreviation.
var abbrev = map[Opt]string{ST: "ST", TB: "TB", BM: "BM", CM: "CM", RT: "RT", PR: "PR"}

// Has reports whether all optimizations in mask are enabled.
func (o Opt) Has(mask Opt) bool { return o&mask == mask }

// String renders the OC name by joining enabled abbreviations with
// underscores in canonical order; the empty combination renders as "BASE"
// (the unoptimized one-thread-per-point kernel).
func (o Opt) String() string {
	if o == 0 {
		return "BASE"
	}
	var parts []string
	for _, opt := range All {
		if o.Has(opt) {
			parts = append(parts, abbrev[opt])
		}
	}
	return strings.Join(parts, "_")
}

// Parse converts an OC name produced by String back into a bitmask.
func Parse(name string) (Opt, error) {
	if name == "BASE" {
		return 0, nil
	}
	var o Opt
	for _, part := range strings.Split(name, "_") {
		found := false
		for opt, ab := range abbrev {
			if ab == part {
				o |= opt
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("opt: unknown optimization %q in %q", part, name)
		}
	}
	return o, nil
}

// Valid reports whether the combination satisfies the Table I constraints:
// BM and CM are mutually exclusive, and RT and PR require ST.
func (o Opt) Valid() bool {
	if o.Has(BM) && o.Has(CM) {
		return false
	}
	if o.Has(RT) && !o.Has(ST) {
		return false
	}
	if o.Has(PR) && !o.Has(ST) {
		return false
	}
	return true
}

// ValidationError explains why an OC violates Table I, or returns nil.
func (o Opt) ValidationError() error {
	switch {
	case o.Has(BM) && o.Has(CM):
		return fmt.Errorf("opt: %s: BM and CM are mutually exclusive", o)
	case o.Has(RT) && !o.Has(ST):
		return fmt.Errorf("opt: %s: RT is only valid with ST enabled", o)
	case o.Has(PR) && !o.Has(ST):
		return fmt.Errorf("opt: %s: PR is only valid with ST enabled", o)
	default:
		return nil
	}
}

// Combinations enumerates every valid OC (including BASE) in ascending
// bitmask order. With six optimizations and the Table I constraints there
// are exactly 30 valid combinations.
func Combinations() []Opt {
	var out []Opt
	for o := Opt(0); o < 1<<6; o++ {
		if o.Valid() {
			out = append(out, o)
		}
	}
	return out
}

// NumCombinations is len(Combinations()), kept as a named constant for
// sizing arrays indexed by OC.
const NumCombinations = 30

// Index returns the position of the OC within Combinations(), or -1 if
// the combination is invalid.
func Index(o Opt) int {
	if !o.Valid() {
		return -1
	}
	idx := 0
	for c := Opt(0); c < o; c++ {
		if c.Valid() {
			idx++
		}
	}
	return idx
}

// FlagVectorInto encodes the OC as six 0/1 features in All order into
// dst (len(All)) without allocating — model input alongside the
// parameter setting.
func (o Opt) FlagVectorInto(dst []float64) {
	if len(dst) != len(All) {
		panic(fmt.Sprintf("opt: flag dst %d, want %d", len(dst), len(All)))
	}
	for i, opt := range All {
		if o.Has(opt) {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// FlagNames lists the OC flag feature names in FlagVectorInto order.
var FlagNames = []string{"st", "tb", "bm", "cm", "rt", "pr"}
