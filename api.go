package stencilmart

import (
	"context"
	"io"
	"time"

	"stencilmart/internal/baseline"
	"stencilmart/internal/core"
	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/profile"
	"stencilmart/internal/serve"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/tensor"
	"stencilmart/internal/tuner"
)

// Stencil is an access pattern: the set of relative offsets a stencil
// computation reads to update one grid point.
type Stencil = stencil.Stencil

// Point is a relative grid offset.
type Point = stencil.Point

// Shape classifies classic stencil geometries.
type Shape = stencil.Shape

// Arch is a GPU architecture (Table III entry).
type Arch = gpu.Arch

// Opt is a bitmask of enabled stencil optimizations (Table I).
type Opt = opt.Opt

// Params is one tunable parameter setting for a kernel under an OC.
type Params = opt.Params

// Workload is one stencil execution problem on the simulated GPU.
type Workload = sim.Workload

// SimResult is one simulated kernel execution.
type SimResult = sim.Result

// Dataset is a profiled stencil corpus.
type Dataset = profile.Dataset

// Instance is one profiled (stencil, OC, params, GPU, time) sample.
type Instance = profile.Instance

// Config sizes the StencilMART pipeline.
type Config = core.Config

// Framework is a built StencilMART instance.
type Framework = core.Framework

// ClassifierKind selects an OC-selection mechanism (GBDT/ConvNet/FcNet).
type ClassifierKind = core.ClassifierKind

// RegressorKind selects a performance-prediction mechanism
// (GBRegressor/MLP/ConvMLP).
type RegressorKind = core.RegressorKind

// RentReport is the outcome of the cloud-rental case study.
type RentReport = core.RentReport

// Strategy is a baseline tuning framework (Artemis, AN5D).
type Strategy = baseline.Strategy

// Binary is the assigned binary tensor of a stencil (Fig. 6).
type Binary = tensor.Binary

// Optimization flags (Table I).
const (
	ST = opt.ST
	TB = opt.TB
	BM = opt.BM
	CM = opt.CM
	RT = opt.RT
	PR = opt.PR
)

// Classification mechanisms (Sec. IV-D).
const (
	ClassGBDT    = core.ClassGBDT
	ClassConvNet = core.ClassConvNet
	ClassFcNet   = core.ClassFcNet
)

// Regression mechanisms (Sec. IV-E).
const (
	RegGB      = core.RegGB
	RegMLP     = core.RegMLP
	RegConvMLP = core.RegConvMLP
)

// Classic shape constructors.
var (
	// Star builds the axis-aligned star stencil of the given
	// dimensionality (2 or 3) and order.
	Star = stencil.Star
	// Box builds the full Chebyshev-ball box stencil.
	Box = stencil.Box
	// Cross builds the diagonal cross stencil.
	Cross = stencil.Cross
	// StencilByName parses identifiers such as "star2d1r" or "box3d4r".
	StencilByName = stencil.ByName
	// NewStencil builds a canonicalized stencil from raw offsets.
	NewStencil = stencil.New
)

// GPUCatalog returns the four GPUs of Table III.
func GPUCatalog() []Arch { return gpu.Catalog() }

// GPUByName looks up a Table III GPU by name.
func GPUByName(name string) (Arch, error) { return gpu.ByName(name) }

// Combinations enumerates all 30 valid optimization combinations.
func Combinations() []Opt { return opt.Combinations() }

// ParseOC parses an OC name such as "ST_RT_PR" or "BASE".
func ParseOC(name string) (Opt, error) { return opt.Parse(name) }

// AssignTensor rasterizes a stencil into its binary tensor (Fig. 6).
func AssignTensor(s Stencil) (Binary, error) { return tensor.Assign(s) }

// Features extracts the Table II candidate feature set.
func Features(s Stencil) []float64 { return tensor.Features(s) }

// GenerateStencils produces n random neighbor-chained stencils
// (Algorithm 1) of the given dimensionality.
func GenerateStencils(dims, n, maxOrder int, seed int64) ([]Stencil, error) {
	g, err := gen.New(gen.Options{Dims: dims, MaxOrder: maxOrder}, seed)
	if err != nil {
		return nil, err
	}
	return g.Corpus(n), nil
}

// DefaultWorkload wraps a stencil with the paper's grid sizes (8192^2 or
// 512^3) and default sweep count.
func DefaultWorkload(s Stencil) Workload { return sim.DefaultWorkload(s) }

// Simulate runs one kernel configuration on the simulated architecture.
func Simulate(w Workload, oc Opt, p Params, arch Arch) (SimResult, error) {
	return sim.New().CellFn(w, arch)(oc, p)
}

// DefaultConfig returns the seconds-scale pipeline configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// PaperConfig returns the larger laptop-scale preset.
func PaperConfig() Config { return core.PaperConfig() }

// Build runs corpus generation, profiling and OC merging, returning a
// framework ready for training and evaluation.
func Build(cfg Config) (*Framework, error) { return core.Build(context.Background(), cfg) }

// BuildContext is Build with cancellation: a cancelled ctx stops
// profiling after the in-flight cells finish.
func BuildContext(ctx context.Context, cfg Config) (*Framework, error) {
	return core.Build(ctx, cfg)
}

// FromDataset assembles a framework around a dataset loaded from disk.
func FromDataset(cfg Config, ds *Dataset) (*Framework, error) {
	return core.FromDataset(cfg, ds, nil)
}

// ReadDataset deserializes a profiled dataset file (`stencilmart profile
// -out`): a checksummed persist frame, refused whole if damaged.
func ReadDataset(r io.Reader) (*Dataset, error) { return profile.Read(r) }

// SmokeConfig returns the smallest useful preset — sized for CI smoke
// tests of the train/checkpoint/serve path.
func SmokeConfig() Config { return core.SmokeConfig() }

// ServePrediction is the one-shot inference result for an unseen
// stencil (class, tuned parameters, cross-GPU times, rent advice).
type ServePrediction = core.ServePrediction

// RentAdvice is the cross-GPU verdict attached to a ServePrediction.
type RentAdvice = core.RentAdvice

// LoadFramework rehydrates a checkpointed framework (see
// Framework.TrainAll and Framework.Save); the result predicts bitwise
// identically to the framework that saved it, without re-profiling.
func LoadFramework(r io.Reader) (*Framework, error) { return core.LoadFramework(r) }

// LoadFrameworkFile rehydrates a checkpoint from disk.
func LoadFrameworkFile(path string) (*Framework, error) { return core.LoadFrameworkFile(path) }

// PredictionServer serves a trained framework over HTTP (POST /predict,
// GET /healthz, GET /statsz).
type PredictionServer = serve.Server

// NewPredictionServer wraps a trained framework in an HTTP prediction
// service; timeout 0 selects the default per-request budget and a
// negative one is refused.
func NewPredictionServer(fw *Framework, timeout time.Duration) (*PredictionServer, error) {
	return serve.New(fw, timeout)
}

// Baseline strategies (Sec. V-B2).
var (
	// Artemis is the high-impact-first greedy tuner emulation.
	Artemis Strategy = baseline.Artemis{}
	// AN5D is the streaming + high-degree temporal blocking emulation.
	AN5D Strategy = baseline.AN5D{}
)

// TuneResult is a parameter-search outcome.
type TuneResult = tuner.Result

// RandomTuner is the paper pipeline's random parameter search.
var RandomTuner = tuner.Random{}
