// Command stencilmart is the command-line interface to the StencilMART
// reproduction: random stencil generation, corpus profiling on the
// simulated GPUs, training a checkpoint from the profiled dataset,
// best-OC prediction and serving from it, and the paper's experiment
// suite.
//
// Usage:
//
//	stencilmart gen        -dims 2 -n 10 -seed 1
//	stencilmart profile    -out dataset.bin [-preset paper]
//	stencilmart train      -dataset dataset.bin -out model.ckpt
//	stencilmart predict    -model model.ckpt -stencil star2d2r -gpu V100
//	stencilmart serve      -model model.ckpt -addr :8080
//	stencilmart simulate   -stencil box3d2r -gpu A100 -oc ST_RT_PR
//	stencilmart experiment -id fig9 [-preset paper]
//	stencilmart experiment -id all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"stencilmart/internal/core"
	"stencilmart/internal/experiments"
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "stencilmart: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stencilmart:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `stencilmart - optimization selection for stencil computations across GPUs

commands:
  gen         generate random neighbor-chained stencils (Algorithm 1)
  profile     profile a random corpus on every GPU and write the dataset
  train       train every serving model on a profiled dataset and write a checkpoint
  predict     predict the best optimization combination from a trained checkpoint
  serve       serve predictions over HTTP from a trained checkpoint
  simulate    run one kernel configuration on the simulated GPU
  experiment  regenerate a paper table/figure (table1-3, fig1-4, fig9-15, scale, all)

run 'stencilmart <command> -h' for command flags`)
}

// configFromPreset maps -preset to a pipeline configuration.
func configFromPreset(preset string, seed int64) (core.Config, error) {
	var cfg core.Config
	switch preset {
	case "default", "":
		cfg = core.DefaultConfig()
	case "paper":
		cfg = core.PaperConfig()
	case "smoke":
		cfg = core.SmokeConfig()
	default:
		return core.Config{}, fmt.Errorf("unknown preset %q (default, paper, smoke)", preset)
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dims := fs.Int("dims", 2, "stencil dimensionality (2 or 3)")
	n := fs.Int("n", 10, "number of stencils")
	maxOrder := fs.Int("order", stencil.MaxOrder, "maximum stencil order")
	seed := fs.Int64("seed", 1, "generator seed")
	showTensor := fs.Bool("tensor", false, "print the assigned binary tensor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("gen: -n must be positive, got %d", *n)
	}
	// The library reads a zero order as "use the default"; on the
	// command line it is a mistake.
	if *maxOrder < 1 || *maxOrder > stencil.MaxOrder {
		return fmt.Errorf("gen: -order must be in [1,%d], got %d", stencil.MaxOrder, *maxOrder)
	}
	g, err := gen.New(gen.Options{Dims: *dims, MaxOrder: *maxOrder}, *seed)
	if err != nil {
		return err
	}
	for _, s := range g.Corpus(*n) {
		fmt.Printf("%s points=%v\n", s, s.Points)
		if *showTensor {
			printTensor(s)
		}
	}
	return nil
}

func printTensor(s stencil.Stencil) {
	b := tensor.MustAssign(s)
	if s.Dims == 3 {
		fmt.Println("  (3-D tensor; printing central z-plane)")
	}
	const side = tensor.Side
	zOff := 0
	if s.Dims == 3 {
		zOff = (side / 2) * side * side
	}
	for y := 0; y < side; y++ {
		fmt.Print("  ")
		for x := 0; x < side; x++ {
			if b.Data[zOff+y*side+x] != 0 {
				fmt.Print("# ")
			} else {
				fmt.Print(". ")
			}
		}
		fmt.Println()
	}
}

// signalContext returns a context cancelled on SIGINT/SIGTERM, so long
// pipeline runs stop between units of work and exit without writing a
// partial output file.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	out := fs.String("out", "dataset.bin", "output dataset path")
	preset := fs.String("preset", "default", "pipeline preset (default, paper, smoke)")
	seed := fs.Int64("seed", 0, "override pipeline seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := configFromPreset(*preset, *seed)
	if err != nil {
		return err
	}
	corpus, p, err := core.Collection(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("profiling %d stencils x %d GPUs x %d OCs x %d settings...\n",
		len(corpus), len(gpu.Catalog()), opt.NumCombinations, cfg.SamplesPerOC)
	ctx, stop := signalContext()
	defer stop()
	// An interrupted run writes nothing (WriteFile is atomic and runs
	// only on success); rerunning the command reproduces the bytes.
	ds, err := p.Collect(ctx, corpus, gpu.Catalog())
	if err != nil {
		return err
	}
	if err := ds.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d stencils, %d instances\n", *out, len(ds.Stencils), len(ds.Instances))
	return nil
}

// loadFramework builds a framework from the dataset file `profile` wrote.
func loadFramework(path, preset string, seed int64) (*core.Framework, error) {
	cfg, err := configFromPreset(preset, seed)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w (write one with `stencilmart profile`)", err)
	}
	defer f.Close()
	ds, err := profile.Read(f)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w (damaged, or not a dataset this build wrote; none is migrated — write a fresh one with `stencilmart profile`)", path, err)
	}
	return core.FromDataset(cfg, ds, nil)
}

// cmdTrain trains every serving model on a profiled dataset and writes
// the checkpoint a later predict/serve rehydrates without re-profiling.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dataset := fs.String("dataset", "dataset.bin", "profiled dataset (from 'profile')")
	out := fs.String("out", "model.ckpt", "checkpoint output path")
	mech := fs.String("classifier", "GBDT", "classifier (GBDT, ConvNet, FcNet)")
	regMech := fs.String("regressor", "GBRegressor", "regressor (GBRegressor, MLP, ConvMLP)")
	preset := fs.String("preset", "default", "pipeline preset (default, paper, smoke)")
	seed := fs.Int64("seed", 0, "override pipeline seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ck, err := core.ParseClassifierKind(*mech)
	if err != nil {
		return err
	}
	rk, err := core.ParseRegressorKind(*regMech)
	if err != nil {
		return err
	}
	fw, err := loadFramework(*dataset, *preset, *seed)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	fmt.Printf("training %s classifiers and %s regressors on %d stencils...\n",
		ck, rk, len(fw.Dataset.Stencils))
	if err := fw.TrainAll(ctx, ck, rk); err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("training interrupted: %w (rerun to train again)", err)
		}
		return err
	}
	if err := fw.SaveFile(*out); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, st.Size())
	return nil
}

// cmdServe loads a checkpoint and serves predictions over HTTP until
// SIGTERM/SIGINT.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "model.ckpt", "trained checkpoint (from 'train')")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	timeout := fs.Duration("timeout", serve.DefaultTimeout, "per-request prediction timeout")
	maxInFlight := fs.Int("max-inflight", serve.DefaultMaxInFlight, "concurrent /predict requests admitted before shedding with 503")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := serve.Options{Timeout: *timeout, MaxInFlight: *maxInFlight}
	// Zero selects a default; a negative number is a malformed flag, and
	// exits 2 before the checkpoint is read, as the flag package does.
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		os.Exit(2)
	}
	fw, err := core.LoadFrameworkFile(*model)
	if err != nil {
		return err
	}
	srv, err := serve.NewWithOptions(fw, opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx, stop := signalContext()
	defer stop()
	logf := func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	return srv.Run(ctx, *addr, logf)
}

// cmdPredict loads a trained checkpoint and runs the serving path for one
// stencil: class, tuned parameters, cross-GPU times, rent advice.
func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	model := fs.String("model", "model.ckpt", "trained checkpoint (from 'train')")
	name := fs.String("stencil", "star2d1r", "classic stencil name (e.g. box3d2r)")
	gpuName := fs.String("gpu", "V100", "target GPU")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Refuse bad flags before reading the checkpoint.
	s, err := stencil.ByName(*name)
	if err != nil {
		return err
	}
	if _, err := gpu.ByName(*gpuName); err != nil {
		return err
	}
	fw, err := core.LoadFrameworkFile(*model)
	if err != nil {
		return err
	}
	pred, err := fw.ServePredict(*gpuName, s)
	if err != nil {
		return err
	}
	fmt.Printf("predicted best OC for %s on %s: %s (class %d)\n", s, *gpuName, pred.OC, pred.Class)
	fmt.Printf("tuned params: %+v\n", pred.Params)
	fmt.Printf("simulated time on %s: %.3f ms\n", *gpuName, pred.TunedSeconds*1e3)
	fmt.Println("predicted times across the catalog:")
	for i, name := range pred.ArchNames {
		fmt.Printf("  %-7s %.3f ms\n", name, pred.PredictedSeconds[i]*1e3)
	}
	adv := pred.Advice
	if adv.Rent {
		fmt.Printf("advice: rent %s (predicted %.2fx faster than %s)\n", adv.BestArch, adv.Speedup, adv.Target)
	} else {
		fmt.Printf("advice: stay on %s (predicted fastest)\n", adv.Target)
	}
	if adv.BestCostArch != "" {
		fmt.Printf("most cost-efficient rentable GPU: %s\n", adv.BestCostArch)
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	name := fs.String("stencil", "star2d1r", "classic stencil name")
	gpuName := fs.String("gpu", "V100", "target GPU")
	ocName := fs.String("oc", "ST", "optimization combination (e.g. ST_RT_PR, BASE)")
	samples := fs.Int("samples", 32, "random parameter settings to search")
	seed := fs.Int64("seed", 1, "sampling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *samples < 1 {
		return fmt.Errorf("simulate: -samples must be positive, got %d", *samples)
	}
	s, err := stencil.ByName(*name)
	if err != nil {
		return err
	}
	arch, err := gpu.ByName(*gpuName)
	if err != nil {
		return err
	}
	oc, err := opt.Parse(*ocName)
	if err != nil {
		return err
	}
	if err := oc.ValidationError(); err != nil {
		return err
	}
	w := sim.DefaultWorkload(s)
	m := sim.New()
	res, err := tuner.Random{}.Tune(m, w, oc, arch, *samples, *seed)
	if err != nil {
		return fmt.Errorf("every sampled setting failed (OC crashes for this stencil): %w", err)
	}
	// The evaluator is pure per (cell, OC, params), so pricing the winner
	// once more yields the winning run's full breakdown.
	best, err := m.CellFn(w, arch)(oc, res.Params)
	if err != nil {
		return err
	}
	fmt.Printf("%s under %s on %s (%d sweeps of %dx%dx%d):\n",
		s, oc, arch.Name, w.TimeSteps, w.GridX, w.GridY, w.GridZ)
	fmt.Printf("  best of %d settings: %.3f ms\n", *samples, best.Time*1e3)
	fmt.Printf("  breakdown: compute=%.3fms memory=%.3fms sync=%.3fms launch=%.3fms\n",
		best.Compute*1e3, best.Memory*1e3, best.Sync*1e3, best.Launch*1e3)
	fmt.Printf("  occupancy=%.0f%% regs/thread=%.0f smem/block=%.1fKiB\n",
		best.Occupancy*100, best.RegsPerThread, best.SmemPerBlockKB)
	fmt.Printf("  winning params: %+v\n", res.Params)
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	id := fs.String("id", "all", "experiment id (table1-3, fig1-4, fig9-15, scale, all)")
	preset := fs.String("preset", "default", "pipeline preset")
	seed := fs.Int64("seed", 0, "override pipeline seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Accept `experiment fig9` as well as `experiment -id fig9`: a
	// silently ignored positional id would fall back to the full (slow)
	// suite.
	if fs.NArg() > 1 {
		return fmt.Errorf("experiment: unexpected arguments %q", fs.Args()[1:])
	}
	if fs.NArg() == 1 {
		if *id != "all" && *id != fs.Arg(0) {
			return fmt.Errorf("experiment: both -id %s and positional id %s given", *id, fs.Arg(0))
		}
		*id = fs.Arg(0)
	}
	cfg, err := configFromPreset(*preset, *seed)
	if err != nil {
		return err
	}
	r := experiments.New(cfg, os.Stdout)
	if *id == "all" {
		return r.RunAll()
	}
	return r.Run(*id)
}
