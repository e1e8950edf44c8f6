package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"stencilmart/internal/baseline"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

// testFramework builds one small shared framework for the package tests;
// building profiles the whole corpus, so tests share it read-only.
var (
	fwOnce sync.Once
	fwInst *Framework
	fwErr  error
)

func testFramework(t *testing.T) *Framework {
	t.Helper()
	fwOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Corpus2D, cfg.Corpus3D = 25, 20
		cfg.SamplesPerOC = 8
		cfg.MaxRegressionInstances = 1500
		cfg.GBDT.Rounds = 25
		cfg.GBReg.Rounds = 50
		cfg.ConvNetTrain.Epochs = 10
		cfg.FcNetTrain.Epochs = 10
		cfg.MLPTrain.Epochs = 8
		cfg.ConvMLPTrain.Epochs = 4
		fwInst, fwErr = Build(context.Background(), cfg)
	})
	if fwErr != nil {
		t.Fatal(fwErr)
	}
	return fwInst
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Corpus2D, c.Corpus3D = 1, 1 },
		func(c *Config) { c.MaxOrder = 0 },
		func(c *Config) { c.SamplesPerOC = 0 },
		func(c *Config) { c.Classes = 1 },
		func(c *Config) { c.Folds = 1 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestBuildProducesValidFramework(t *testing.T) {
	fw := testFramework(t)
	if err := fw.Dataset.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Grouping.Validate(); err != nil {
		t.Fatal(err)
	}
	if fw.Grouping.NumClasses() != fw.Cfg.Classes {
		t.Errorf("classes = %d, want %d", fw.Grouping.NumClasses(), fw.Cfg.Classes)
	}
	if n2, n3 := len(fw.StencilIndices(2)), len(fw.StencilIndices(3)); n2 != 25 || n3 != 20 {
		t.Errorf("corpus split %d/%d, want 25/20", n2, n3)
	}
}

func TestClassifierAccuracyAllKinds(t *testing.T) {
	fw := testFramework(t)
	for _, kind := range ClassifierKinds {
		acc, err := fw.ClassifierAccuracy(kind, "V100", 2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if acc < 0.2 || acc > 1 {
			t.Errorf("%s accuracy %.3f implausible", kind, acc)
		}
		t.Logf("%s 2-D V100 accuracy: %.3f", kind, acc)
	}
	if _, err := fw.ClassifierAccuracy(ClassGBDT, "NoSuchGPU", 2); err == nil {
		t.Error("unknown GPU accepted")
	}
}

func TestSpeedupVsBaselines(t *testing.T) {
	fw := testFramework(t)
	for _, strat := range []baseline.Strategy{baseline.Artemis{}, baseline.AN5D{}} {
		sp, err := fw.SpeedupVsBaseline(ClassGBDT, "V100", 2, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if sp < 0.5 || sp > 20 {
			t.Errorf("speedup vs %s = %.2f implausible", strat.Name(), sp)
		}
		t.Logf("GBDT vs %s: %.2fx", strat.Name(), sp)
	}
}

func TestRegressorMAPEAllKinds(t *testing.T) {
	fw := testFramework(t)
	for _, kind := range []RegressorKind{RegGB, RegMLP} {
		per, overall, err := fw.RegressorMAPE(kind, 2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if overall <= 0 || overall > 2 {
			t.Errorf("%s overall MAPE %.3f implausible", kind, overall)
		}
		if len(per) == 0 {
			t.Errorf("%s produced no per-arch MAPE", kind)
		}
		t.Logf("%s 2-D MAPE: %.3f", kind, overall)
	}
}

func TestTrainedRegressorPredictsPositive(t *testing.T) {
	fw := testFramework(t)
	instances := fw.dimsInstances(3)
	if len(instances) < 20 {
		t.Fatal("too few instances")
	}
	tr, err := fw.TrainRegressor(RegGB, 3, instances[:len(instances)/2], 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range instances[len(instances)/2 : len(instances)/2+10] {
		v, err := tr.PredictSeconds(in)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("prediction %g for %+v", v, in)
		}
	}
}

func TestRentStudyBothMetrics(t *testing.T) {
	fw := testFramework(t)
	for _, cost := range []bool{false, true} {
		rep, err := fw.RentStudy(RegGB, 2, cost, 4)
		if err != nil {
			t.Fatalf("cost=%v: %v", cost, err)
		}
		wantArchs := 4
		if cost {
			wantArchs = 3 // the 2080 Ti is not rentable
		}
		if len(rep.ArchNames) != wantArchs {
			t.Fatalf("cost=%v: %d archs, want %d", cost, len(rep.ArchNames), wantArchs)
		}
		var total float64
		for _, s := range rep.Share {
			if s < 0 || s > 1 {
				t.Errorf("share %g outside [0,1]", s)
			}
			total += s
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("shares sum to %g", total)
		}
		if rep.Overall < 0 || rep.Overall > 1 {
			t.Errorf("overall accuracy %g", rep.Overall)
		}
	}
	if _, err := fw.RentStudy(RegGB, 2, false, 0); err == nil {
		t.Error("zero evals accepted")
	}
}

func TestMLPSweepShape(t *testing.T) {
	fw := testFramework(t)
	points, err := fw.MLPSweep(2, []int{2, 3}, []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d sweep points, want 4", len(points))
	}
	for _, p := range points {
		if p.MAPE <= 0 || math.IsNaN(p.MAPE) {
			t.Errorf("sweep point %+v has bad MAPE", p)
		}
	}
	// The framework config must be restored after the sweep.
	if fw.Cfg.MLPLayers != DefaultConfig().MLPLayers {
		t.Error("MLPSweep leaked config mutation")
	}
}

func TestFeatureRowWidths(t *testing.T) {
	s := stencil.Box(3, 2)
	oc := opt.ST | opt.PR
	p := opt.Params{BlockX: 64, BlockY: 4, Merge: 1, Unroll: 2,
		StreamTile: 64, StreamDim: 3, UseSmem: true, PrefetchDepth: 1}
	fw := testFramework(t)
	_, arch, err := fw.ArchByName("P100")
	if err != nil {
		t.Fatal(err)
	}
	row := regRow(RegGB, s, oc, p, arch)
	wantTail := regTailWidth
	if len(row) != len(classEncode(ClassGBDT, s))+wantTail {
		t.Errorf("feature row width %d", len(row))
	}
	trow := regRow(RegConvMLP, s, oc, p, arch)
	if len(trow) != len(classEncode(ClassConvNet, s))+wantTail {
		t.Errorf("tensor row width %d", len(trow))
	}
}

// TestCancelledContextStopsBuildAndTrainAll: Build under a cancelled
// context returns an error wrapping context.Canceled and no framework,
// and TrainAll under one returns context.Canceled and drops any trained
// set it would have replaced.
func TestCancelledContextStopsBuildAndTrainAll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	fw, err := Build(ctx, SmokeConfig())
	if !errors.Is(err, context.Canceled) || fw != nil {
		t.Fatalf("Build under a cancelled context: framework %p, err %v; want nil and context.Canceled", fw, err)
	}

	base := ckptFramework(t)
	fresh, err := FromDataset(base.Cfg, base.Dataset, base.Model)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Trained = &Trained{}
	if err := fresh.TrainAll(ctx, ClassGBDT, RegGB); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainAll under a cancelled context: err %v, want context.Canceled", err)
	}
	if fresh.Trained != nil {
		t.Fatal("TrainAll under a cancelled context left a trained set")
	}
}
