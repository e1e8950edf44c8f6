package core

import (
	"context"
	"fmt"
	"sync"

	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/merge"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

// Framework is a built StencilMART instance: a profiled corpus plus the
// merged OC classes, ready to train and evaluate predictors.
type Framework struct {
	Cfg      Config
	Dataset  *profile.Dataset
	Grouping merge.Grouping
	Model    *sim.Model
	// Trained holds the deployed full-corpus models after TrainAll or
	// LoadFramework; nil until then. See train.go.
	Trained *Trained

	// compiled caches the f32 inference lane built by CompiledF32 for the
	// exact Trained set it was compiled from; TrainAll swapping Trained
	// invalidates it by pointer identity. See compile.go.
	compileMu   sync.Mutex
	compiled    *CompiledTrained
	compiledFor *Trained
}

// Collection is the one corpus recipe: it validates cfg, generates the
// random corpus and returns the profiler seeded to measure it. Build and
// the CLI's profile command both collect through it, so a dataset written
// to disk and one built in memory are the same dataset.
func Collection(cfg Config) ([]stencil.Stencil, *profile.Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	corpus, err := gen.MixedCorpus(cfg.Corpus2D, cfg.Corpus3D, cfg.MaxOrder, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	return corpus, profile.NewProfiler(cfg.SamplesPerOC, cfg.Seed+1000), nil
}

// Build runs the data-collection half of the pipeline: generate the
// random corpus, profile it on every catalog GPU, and merge the OCs into
// prediction classes. Cancelling ctx (e.g. on SIGINT) stops profiling
// after in-flight cells finish.
func Build(ctx context.Context, cfg Config) (*Framework, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	corpus, prof, err := Collection(cfg)
	if err != nil {
		return nil, err
	}
	model := sim.New()
	prof.Model = model
	ds, err := prof.Collect(ctx, corpus, gpu.Catalog())
	if err != nil {
		return nil, err
	}
	return FromDataset(cfg, ds, model)
}

// FromDataset assembles a framework around an existing dataset (e.g. one
// loaded from disk by the CLI), running only the OC-merging step.
func FromDataset(cfg Config, ds *profile.Dataset, model *sim.Model) (*Framework, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		model = sim.New()
	}
	// Merge on median per-OC times (a stable statistic of each OC's
	// behavior); best-OC labels keep using the best-of-search minimum.
	matrices := make([][][]float64, len(ds.Archs))
	for ai := range ds.Archs {
		matrices[ai] = ds.MedianTimeMatrix(ai)
	}
	grouping, err := merge.Build(matrices, cfg.Classes)
	if err != nil {
		return nil, err
	}
	if err := grouping.Validate(); err != nil {
		return nil, err
	}
	return &Framework{Cfg: cfg, Dataset: ds, Grouping: grouping, Model: model}, nil
}

// StencilIndices returns the corpus indices of the given dimensionality.
func (f *Framework) StencilIndices(dims int) []int {
	var out []int
	for i, s := range f.Dataset.Stencils {
		if s.Dims == dims {
			out = append(out, i)
		}
	}
	return out
}

// classLabels returns merged-class labels for a set of stencil indices.
func (f *Framework) classLabels(archIdx int, indices []int) []int {
	all := f.Dataset.Labels(archIdx)
	out := make([]int, len(indices))
	for i, si := range indices {
		out[i] = f.Grouping.GroupOf[all[si]]
	}
	return out
}

// ArchByName resolves a Table III GPU from the dataset.
func (f *Framework) ArchByName(name string) (int, gpu.Arch, error) {
	ai, err := f.Dataset.ArchIndex(name)
	if err != nil {
		return 0, gpu.Arch{}, err
	}
	return ai, f.Dataset.Archs[ai], nil
}

// stencilFolds returns fold index sets over the stencils of one
// dimensionality.
func (f *Framework) stencilFolds(dims int) ([][]int, [][]int, error) {
	indices := f.StencilIndices(dims)
	if len(indices) < f.Cfg.Folds {
		return nil, nil, fmt.Errorf("core: %d %d-D stencils cannot form %d folds", len(indices), dims, f.Cfg.Folds)
	}
	folds, err := profile.Folds(len(indices), f.Cfg.Folds, f.Cfg.Seed+7)
	if err != nil {
		return nil, nil, err
	}
	// Map positions back to corpus indices.
	mapped := make([][]int, len(folds))
	for fi, fold := range folds {
		for _, pos := range fold {
			mapped[fi] = append(mapped[fi], indices[pos])
		}
	}
	return mapped, folds, nil
}
