// Package stencilmart is a pure-Go reproduction of "StencilMART:
// Predicting Optimization Selection for Stencil Computations across GPUs"
// (Sun et al., IPDPS 2022).
//
// StencilMART is an automatic optimization-selection framework for GPU
// stencil kernels. It represents stencil access patterns as binary
// tensors and engineered neighboring features, profiles randomly
// generated stencils under every valid optimization combination (OC) on
// several GPU architectures, merges near-equivalent OCs via Pearson
// correlation, and trains machine-learning models that
//
//   - select the best OC for a new stencil on a given GPU
//     (classification: GBDT, ConvNet, FcNet), and
//   - predict execution time across architectures from stencil, parameter
//     and hardware features (regression: GBRegressor, MLP, ConvMLP),
//     enabling the "rent or not rent a cloud GPU" case study.
//
// Because this reproduction has no CUDA hardware, the GPUs of the paper's
// Table III are simulated by an analytical performance model
// (internal/sim) with the same structural behaviors real stencil kernels
// exhibit; see DESIGN.md for the substitution argument.
//
// Quick start — collect, train once, then ask the trained models:
//
//	fw, err := stencilmart.Build(stencilmart.DefaultConfig()) // generate + profile + merge
//	if err != nil { ... }
//	err = fw.TrainAll(ctx, stencilmart.ClassGBDT, stencilmart.RegGB)
//	pred, err := fw.ServePredict("V100", stencilmart.Star(2, 2)) // pred.OC, pred.Params, pred.Advice
//
// The examples/ directory contains runnable programs for OC selection,
// cross-architecture prediction, the rent advisor and serving;
// cmd/stencilmart is the command-line interface (profile → train →
// predict/serve); EXPERIMENTS.md records the paper-vs-reproduction
// comparison for every table and figure.
package stencilmart
