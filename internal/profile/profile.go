// Package profile implements the paper's training-data collection
// pipeline (Fig. 5): every stencil in a corpus is executed under every
// valid optimization combination (OC) with randomly searched parameter
// settings on every target GPU; the best time per OC labels the stencil,
// and every individual (setting, time) pair is retained as a regression
// instance for cross-architecture performance prediction.
package profile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"stencilmart/internal/gpu"
	"stencilmart/internal/lazyrand"
	"stencilmart/internal/opt"
	"stencilmart/internal/par"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

// OCResult is the outcome of the random parameter search for one OC on
// one (stencil, architecture) pair.
type OCResult struct {
	// OC is the optimization combination.
	OC opt.Opt
	// Crashed reports that no sampled setting could run (the paper's
	// "OC crashes under certain stencils" case).
	Crashed bool
	// Time is the best execution time in seconds over the sampled
	// settings; NaN when Crashed.
	Time float64
	// Params is the setting achieving Time.
	Params opt.Params
}

// Profile aggregates the per-OC results for one stencil on one GPU.
type Profile struct {
	// StencilIdx indexes the dataset's stencil corpus.
	StencilIdx int
	// Arch is the GPU name (Table III).
	Arch string
	// Results holds one entry per valid OC, ordered as opt.Combinations.
	Results []OCResult
	// BestOC is the fastest non-crashed OC.
	BestOC opt.Opt
	// BestTime is the execution time of BestOC.
	BestTime float64
}

// Instance is one regression sample: a parameter setting of an OC for a
// stencil on an architecture, and its measured time.
type Instance struct {
	StencilIdx int
	OC         opt.Opt
	Params     opt.Params
	Arch       string
	Time       float64
}

// Profiler drives data collection against the simulation substrate.
// Each sampled setting is measured once: the simulator's noise is a pure
// function of its key and its crashes and invalid settings come back as
// results, so a second measurement could only repeat the first.
type Profiler struct {
	// Model is the measurement substrate, resolved once per cell; nil
	// uses sim.New(). Tests hook the simulator's Reference oracle and
	// their doubles in here by wrapping a cell.
	Model sim.Cells
	// SamplesPerOC is the number of random parameter settings searched
	// per OC (the paper's random search budget).
	SamplesPerOC int
	// Seed makes collection deterministic; every (stencil, arch, OC)
	// cell derives its own rng from it, so worker scheduling cannot
	// change results.
	Seed int64
	// Workers bounds the profiling goroutines; 0 uses GOMAXPROCS.
	Workers int

	// modelMu guards the lazy Model initialization: ProfileOne may be
	// called concurrently from Collect's worker pool (or by users), and
	// an unguarded nil-check-then-assign on Model is a data race.
	modelMu sync.Mutex
}

// NewProfiler returns a profiler with the given search budget and seed.
func NewProfiler(samplesPerOC int, seed int64) *Profiler {
	return &Profiler{Model: sim.New(), SamplesPerOC: samplesPerOC, Seed: seed}
}

func (p *Profiler) model() sim.Cells {
	p.modelMu.Lock()
	defer p.modelMu.Unlock()
	if p.Model == nil {
		p.Model = sim.New()
	}
	return p.Model
}

// ProfileOne profiles a single stencil on a single architecture,
// measuring each sampled setting once. A setting that crashes or is
// invalid is skipped; a non-finite time (a simulator bug, never a
// profiling result) or a cancelled/expired ctx fails the cell. ctx's
// Done is polled before every sample; Err, which takes the context's
// lock, is read only once Done has closed. A panic in the substrate is
// not recovered here: Collect's worker pool turns it into a
// *par.PanicError that fails the collection.
func (p *Profiler) ProfileOne(ctx context.Context, stencilIdx int, s stencil.Stencil, arch gpu.Arch) (Profile, []Instance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.SamplesPerOC < 1 {
		return Profile{}, nil, fmt.Errorf("profile: samples per OC %d < 1", p.SamplesPerOC)
	}
	w := sim.DefaultWorkload(s)
	eval := p.model().CellFn(w, arch)
	combos := opt.Combinations()
	prof := Profile{
		StencilIdx: stencilIdx,
		Arch:       arch.Name,
		Results:    make([]OCResult, len(combos)),
	}
	// Every sample that measures cleanly becomes an instance; size for the
	// no-crash case so the append loop never regrows.
	instances := make([]Instance, 0, len(combos)*p.SamplesPerOC)
	// One rng re-seeded per OC. Each stream is bit for bit the one
	// rand.New(rand.NewSource(cellSeed)) would produce — the dataset is
	// those bits — but the source builds register words as an OC's ~100
	// draws first read them, so a re-seed costs nothing.
	rng := rand.New(lazyrand.NewSource(0))
	done := ctx.Done()
	for ci, oc := range combos {
		rng.Seed(cellSeed(p.Seed, stencilIdx, arch.Name, ci))
		res := OCResult{OC: oc, Time: math.NaN(), Crashed: true}
		for k := 0; k < p.SamplesPerOC; k++ {
			select {
			case <-done:
				return Profile{}, nil, fmt.Errorf("profile: stencil %q %s on %s: %w", s.Name, oc, arch.Name, ctx.Err())
			default:
			}
			params := opt.Sample(oc, s.Dims, rng)
			r, err := eval(oc, params)
			if err != nil {
				// A crash or invalid setting: the paper's "OC crashes under
				// certain stencils" case — skip the sample.
				continue
			}
			if math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
				return Profile{}, nil, fmt.Errorf("profile: stencil %q %s on %s: non-finite measured time %v", s.Name, oc, arch.Name, r.Time)
			}
			instances = append(instances, Instance{
				StencilIdx: stencilIdx, OC: oc, Params: params,
				Arch: arch.Name, Time: r.Time,
			})
			if res.Crashed || r.Time < res.Time {
				res.Crashed = false
				res.Time = r.Time
				res.Params = params
			}
		}
		prof.Results[ci] = res
	}
	var found bool
	if prof.BestOC, prof.BestTime, found = bestResult(prof.Results); !found {
		return Profile{}, nil, fmt.Errorf("profile: stencil %q crashed under every OC on %s", s.Name, arch.Name)
	}
	return prof, instances, nil
}

// bestResult is a profile's label: the first result, in OC order, that did
// not crash and whose time is strictly below every earlier one's. ok is
// false when every OC crashed. Validate holds stored labels to it.
func bestResult(results []OCResult) (oc opt.Opt, best float64, ok bool) {
	best = math.Inf(1)
	for _, r := range results {
		if !r.Crashed && r.Time < best {
			oc, best, ok = r.OC, r.Time, true
		}
	}
	return oc, best, ok
}

// measureCells is the one collection loop: it profiles the listed cells
// in parallel on the shared par worker pool and hands each finished cell
// to sink on the goroutine that measured it, so sink must be safe for
// concurrent use. Every listed cell is attempted even when others fail;
// the error returned is the one the serial loop would have hit first.
func (p *Profiler) measureCells(ctx context.Context, stencils []stencil.Stencil, archs []gpu.Arch, indices []int, sink func(*journalCell) error) error {
	p.model() // resolve the lazy model before workers race to do it
	err := par.ForEach(ctx, len(indices), p.Workers, func(j int) error {
		i, nS := indices[j], len(stencils)
		prof, inst, err := p.ProfileOne(ctx, i%nS, stencils[i%nS], archs[i/nS])
		if err != nil {
			return err
		}
		return sink(&journalCell{Index: i, Profile: prof, Instances: inst})
	})
	var errs par.Errors
	if errors.As(err, &errs) {
		return errs.First()
	}
	return err
}

// Collect profiles the full corpus on every architecture, in parallel
// across (stencil, architecture) cells, and assembles the dataset. Each
// cell derives its own rng from Seed and results are laid out in
// cell-index order, so the dataset is byte-identical for any worker
// count (the serial reference is Workers == 1) — the property the
// differential suite enforces. Cancelling ctx stops dispatch after
// in-flight cells finish and returns no dataset; rerunning the same
// collection reproduces the bytes.
func (p *Profiler) Collect(ctx context.Context, stencils []stencil.Stencil, archs []gpu.Arch) (*Dataset, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(stencils) == 0 || len(archs) == 0 {
		return nil, fmt.Errorf("profile: empty corpus (%d stencils, %d archs)", len(stencils), len(archs))
	}
	cells := newCellSet(len(stencils), archs) // nothing replayed: every cell is missing
	err := p.measureCells(ctx, stencils, archs, cells.missing(), func(c *journalCell) error {
		cells.done[c.Index] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assembleDataset(stencils, archs, cells.done, p.Workers), nil
}

// cellSeed derives a deterministic seed for one (stencil, arch, OC) cell.
func cellSeed(base int64, stencilIdx int, arch string, ocIdx int) int64 {
	h := base
	for _, c := range arch {
		h = h*1000003 + int64(c)
	}
	h = h*1000003 + int64(stencilIdx)
	h = h*1000003 + int64(ocIdx)
	if h == 0 {
		h = 1
	}
	return h
}
