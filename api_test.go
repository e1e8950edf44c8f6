package stencilmart_test

import (
	"bytes"
	"context"
	"testing"

	"stencilmart"
)

func TestPublicShapeConstructors(t *testing.T) {
	s := stencilmart.Star(2, 1)
	if s.NumPoints() != 5 {
		t.Errorf("star2d1r points = %d", s.NumPoints())
	}
	byName, err := stencilmart.StencilByName("box3d2r")
	if err != nil {
		t.Fatal(err)
	}
	if byName.Dims != 3 || byName.Order() != 2 {
		t.Errorf("ByName gave %v", byName)
	}
}

func TestPublicGPUAndOC(t *testing.T) {
	if len(stencilmart.GPUCatalog()) != 4 {
		t.Error("catalog size != 4")
	}
	v100, err := stencilmart.GPUByName("V100")
	if err != nil || v100.MemBWGBs != 900 {
		t.Errorf("V100 lookup: %v %v", v100, err)
	}
	if len(stencilmart.Combinations()) != 30 {
		t.Error("combinations != 30")
	}
	oc, err := stencilmart.ParseOC("ST_RT")
	if err != nil || !oc.Has(stencilmart.ST) || !oc.Has(stencilmart.RT) {
		t.Errorf("ParseOC: %v %v", oc, err)
	}
}

func TestPublicSimulate(t *testing.T) {
	s := stencilmart.Star(2, 1)
	w := stencilmart.DefaultWorkload(s)
	v100, _ := stencilmart.GPUByName("V100")
	r, err := stencilmart.Simulate(w, 0,
		stencilmart.Params{BlockX: 64, BlockY: 4, Merge: 1, Unroll: 1}, v100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time <= 0 {
		t.Errorf("time %g", r.Time)
	}
}

func TestPublicGenerateAndTensor(t *testing.T) {
	ss, err := stencilmart.GenerateStencils(3, 5, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 5 {
		t.Fatalf("%d stencils", len(ss))
	}
	for _, s := range ss {
		b, err := stencilmart.AssignTensor(s)
		if err != nil {
			t.Fatal(err)
		}
		if b.NNZ() != s.NumPoints() {
			t.Errorf("%s: tensor NNZ %d != points %d", s.Name, b.NNZ(), s.NumPoints())
		}
		f := stencilmart.Features(s)
		if len(f) == 0 || f[0] != float64(s.Order()) {
			t.Errorf("%s: features %v", s.Name, f)
		}
	}
}

func TestPublicEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end build is slow")
	}
	cfg := stencilmart.DefaultConfig()
	cfg.Corpus2D, cfg.Corpus3D = 15, 10
	cfg.SamplesPerOC = 6
	cfg.MaxRegressionInstances = 800
	cfg.GBDT.Rounds = 15
	cfg.GBReg.Rounds = 25
	fw, err := stencilmart.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.TrainAll(context.Background(), stencilmart.ClassGBDT, stencilmart.RegGB); err != nil {
		t.Fatal(err)
	}
	pred, err := fw.ServePredict("V100", stencilmart.Star(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if oc, err := stencilmart.ParseOC(pred.OC); err != nil || !oc.Valid() {
		t.Errorf("invalid OC %q: %v", pred.OC, err)
	}
	// Round-trip the dataset through the public serialization surface.
	var buf bytes.Buffer
	if err := fw.Dataset.Write(&buf); err != nil {
		t.Fatal(err)
	}
	ds, err := stencilmart.ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fw2, err := stencilmart.FromDataset(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if fw2.Grouping.NumClasses() != fw.Grouping.NumClasses() {
		t.Error("grouping changed after dataset round trip")
	}
}

func TestBaselinesExposed(t *testing.T) {
	if stencilmart.Artemis.Name() != "Artemis" || stencilmart.AN5D.Name() != "AN5D" {
		t.Error("baseline strategies misnamed")
	}
}
