// Package fault is the chaos source of the reproduction: a deterministic,
// seeded injector that wraps each measured cell's sim.EvalFn and
// corrupts its samples the way real profiling campaigns get corrupted —
// transient driver errors, latency spikes, non-finite samples, and
// outright crashes (panics).
//
// Determinism is the design constraint: whether a given measurement
// attempt faults is a pure function of (injector seed, measurement site,
// attempt number), where a site is the canonical sim.RunKey of the
// sample. Worker scheduling therefore cannot change which attempts
// fault, and a profiling run under injection that retries faulted
// attempts produces a dataset bitwise-identical to a fault-free run —
// the property the differential chaos suite enforces.
//
// A per-site fault budget (Config.MaxFaultsPerSite) bounds how many
// attempts at one site may fault, so bounded retries and median-of-k
// trials are guaranteed to recover the clean measurement.
package fault

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
)

// Config sets the per-attempt fault rates. Each rate is a probability in
// [0, 1); on one attempt at most one fault fires, drawn by partitioning
// the unit interval in the order panic, transient, NaN, Inf, spike.
type Config struct {
	// Seed drives every injection decision.
	Seed int64 `json:"seed"`
	// PanicRate is the probability an attempt panics mid-measurement.
	PanicRate float64 `json:"panic_rate"`
	// TransientRate is the probability an attempt fails with a
	// *TransientError (the "driver hiccup" class a retry cures).
	TransientRate float64 `json:"transient_rate"`
	// NaNRate and InfRate are the probabilities a successful measurement
	// reports a non-finite time.
	NaNRate float64 `json:"nan_rate"`
	InfRate float64 `json:"inf_rate"`
	// SpikeRate is the probability a successful measurement's time is
	// multiplied by SpikeFactor (a timing outlier).
	SpikeRate float64 `json:"spike_rate"`
	// SpikeFactor scales spiked times; <= 1 selects DefaultSpikeFactor.
	SpikeFactor float64 `json:"spike_factor,omitempty"`
	// MaxFaultsPerSite caps the total faults injected at one measurement
	// site, guaranteeing retries eventually observe the clean value;
	// <= 0 selects DefaultMaxFaultsPerSite.
	MaxFaultsPerSite int `json:"max_faults_per_site,omitempty"`
}

// DefaultSpikeFactor is the timing-outlier multiplier.
const DefaultSpikeFactor = 25.0

// DefaultMaxFaultsPerSite keeps every site recoverable by a single retry
// or a median over 3 trials.
const DefaultMaxFaultsPerSite = 1

// DefaultConfig returns the chaos-smoke configuration: a ≥10% transient
// error rate plus occasional panics, non-finite samples, and spikes —
// every fault class the tolerant profiler must absorb.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		PanicRate:     0.02,
		TransientRate: 0.15,
		NaNRate:       0.04,
		InfRate:       0.02,
		SpikeRate:     0.05,
	}
}

func (c Config) spikeFactor() float64 {
	if c.SpikeFactor > 1 {
		return c.SpikeFactor
	}
	return DefaultSpikeFactor
}

func (c Config) budget() int {
	if c.MaxFaultsPerSite > 0 {
		return c.MaxFaultsPerSite
	}
	return DefaultMaxFaultsPerSite
}

// Validate checks the rates sum to a proper sub-distribution.
func (c Config) Validate() error {
	total := 0.0
	for _, r := range []float64{c.PanicRate, c.TransientRate, c.NaNRate, c.InfRate, c.SpikeRate} {
		if r < 0 || r >= 1 || math.IsNaN(r) {
			return fmt.Errorf("fault: rate %v outside [0, 1)", r)
		}
		total += r
	}
	if total >= 1 {
		return fmt.Errorf("fault: rates sum to %v >= 1", total)
	}
	return nil
}

// TransientError is the injected "driver hiccup": an error a retry is
// expected to cure. It implements the Transient() classification the
// profiler's retry layer keys on.
type TransientError struct {
	Site    uint64
	Attempt int
}

// Error implements error.
func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: injected transient error (site %x, attempt %d)", e.Site, e.Attempt)
}

// Transient marks the error as retryable.
func (e *TransientError) Transient() bool { return true }

// IsTransient reports whether err self-classifies as retryable via a
// `Transient() bool` method anywhere in its chain.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// InjectedPanic is the value the injector panics with; the profiler's
// recovery layer surfaces it inside a panic-classifying error.
type InjectedPanic struct {
	Site    uint64
	Attempt int
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic (site %x, attempt %d)", p.Site, p.Attempt)
}

// Stats counts injected faults and attempts, read with Injector.Stats.
type Stats struct {
	Attempts   uint64 `json:"attempts"`
	Sites      uint64 `json:"sites"`
	Transients uint64 `json:"transients"`
	Panics     uint64 `json:"panics"`
	NaNs       uint64 `json:"nans"`
	Infs       uint64 `json:"infs"`
	Spikes     uint64 `json:"spikes"`
}

// Total returns the number of injected faults of every class.
func (s Stats) Total() uint64 {
	return s.Transients + s.Panics + s.NaNs + s.Infs + s.Spikes
}

// Injector wraps the cells of a sim.Cells with deterministic fault
// injection. It is safe for concurrent use; per-site attempt sequences
// stay deterministic because one site is only ever measured sequentially
// (retries and trials of a cell run on the cell's own worker).
type Injector struct {
	cfg  Config
	next sim.Cells
	led  *ledger

	attempts, transients, panics, nans, infs, spikes atomic.Uint64
}

// Wrap returns an injector around next. It panics on an invalid config —
// the injector only exists in tests and chaos smoke runs, where a bad
// configuration is a programming error.
func Wrap(next sim.Cells, cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if next == nil {
		panic("fault: nil cells")
	}
	return &Injector{cfg: cfg, next: next, led: newLedger(cfg.Seed, cfg.budget(),
		cfg.PanicRate, cfg.TransientRate, cfg.NaNRate, cfg.InfRate, cfg.SpikeRate)}
}

// Stats snapshots the injection counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Attempts:   in.attempts.Load(),
		Sites:      in.led.seen(),
		Transients: in.transients.Load(),
		Panics:     in.panics.Load(),
		NaNs:       in.nans.Load(),
		Infs:       in.infs.Load(),
		Spikes:     in.spikes.Load(),
	}
}

// The ledger's fault classes of one attempt, in the order Wrap lists the
// rates; 0 is a clean attempt.
const (
	injectPanic = iota + 1
	injectTransient
	injectNaN
	injectInf
	injectSpike
)

// siteID hashes the canonical run key of one measurement site.
func siteID(w sim.Workload, oc opt.Opt, p opt.Params, arch gpu.Arch) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sim.RunKey(w, oc, p, arch)))
	return h.Sum64()
}

// CellFn implements sim.Cells: it resolves the wrapped cell once and
// returns an EvalFn that may fault instead of (or on top of) each
// wrapped measurement. Permanent simulator errors (crashes, invalid
// settings) pass through untouched — they are real profiling outcomes,
// not faults.
func (in *Injector) CellFn(w sim.Workload, arch gpu.Arch) sim.EvalFn {
	eval := in.next.CellFn(w, arch)
	return func(oc opt.Opt, p opt.Params) (sim.Result, error) {
		in.attempts.Add(1)
		site := siteID(w, oc, p, arch)
		attempt, out := in.led.begin(site)

		switch out {
		case injectPanic:
			in.led.spend(site)
			in.panics.Add(1)
			panic(InjectedPanic{Site: site, Attempt: attempt})
		case injectTransient:
			in.led.spend(site)
			in.transients.Add(1)
			return sim.Result{}, &TransientError{Site: site, Attempt: attempt}
		}

		r, err := eval(oc, p)
		if err != nil {
			return r, err
		}
		switch out {
		case injectNaN:
			in.led.spend(site)
			in.nans.Add(1)
			r.Time = math.NaN()
		case injectInf:
			in.led.spend(site)
			in.infs.Add(1)
			r.Time = math.Inf(1)
		case injectSpike:
			in.led.spend(site)
			in.spikes.Add(1)
			r.Time *= in.cfg.spikeFactor()
		}
		return r, nil
	}
}

var _ sim.Cells = (*Injector)(nil)
