package main

import (
	"context"
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"stencilmart/internal/core"
	"stencilmart/internal/persist"
)

func TestConfigFromPreset(t *testing.T) {
	cfg, err := configFromPreset("default", 0)
	if err != nil || cfg.Corpus2D != core.DefaultConfig().Corpus2D {
		t.Errorf("default preset: %+v, %v", cfg, err)
	}
	cfg, err = configFromPreset("paper", 99)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Corpus2D != core.PaperConfig().Corpus2D {
		t.Errorf("paper preset corpus %d", cfg.Corpus2D)
	}
	if cfg.Seed != 99 {
		t.Errorf("seed override not applied: %d", cfg.Seed)
	}
	if _, err := configFromPreset("huge", 0); err == nil {
		t.Error("unknown preset accepted")
	}
	// Empty preset behaves like default.
	if _, err := configFromPreset("", 0); err != nil {
		t.Errorf("empty preset rejected: %v", err)
	}
}

func TestParseClassifier(t *testing.T) {
	cases := map[string]core.ClassifierKind{
		"GBDT": core.ClassGBDT, "ConvNet": core.ClassConvNet, "FcNet": core.ClassFcNet,
	}
	for name, want := range cases {
		got, err := core.ParseClassifierKind(name)
		if err != nil || got != want {
			t.Errorf("ParseClassifierKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := core.ParseClassifierKind("SVM"); err == nil {
		t.Error("unknown classifier accepted")
	}
}

// TestLoadFrameworkRefusesAJSONDataset: the JSON file an older build's
// `profile` wrote is refused by the frame, not read and not migrated, and
// the error (main prints it and exits 1) says what to run instead.
func TestLoadFrameworkRefusesAJSONDataset(t *testing.T) {
	_, err := loadFramework(context.Background(), "../../internal/profile/testdata/dataset_parent_8a94af0.json", "smoke", 7)
	if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "`stencilmart profile`") {
		t.Fatalf("got %v, want persist.ErrCorrupt and a pointer to `stencilmart profile`", err)
	}
}

// TestSimulateRejectsNoSamples: a non-positive -samples is refused before
// anything is sampled, not reported as an OC that crashed on every setting.
func TestSimulateRejectsNoSamples(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		err := cmdSimulate([]string{"-samples", n})
		if err == nil || !strings.Contains(err.Error(), "-samples must be positive") {
			t.Errorf("-samples %s: got %v, want the count refused", n, err)
		}
	}
}

// TestGenRejectsNoStencils: a non-positive -n is refused before the
// generator sizes its corpus, not passed on as a slice capacity.
func TestGenRejectsNoStencils(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		err := cmdGen([]string{"-n", n})
		if err == nil || !strings.Contains(err.Error(), "-n must be positive") {
			t.Errorf("-n %s: got %v, want the count refused", n, err)
		}
	}
}

// TestBadFlagsRefusedBeforeLoading: predict refuses a bad flag before it
// opens -model, and rent before it opens -dataset (or, without one,
// profiles a whole corpus). The files named here do not exist, so a flag
// checked only after loading would surface as the file-open error
// instead. Each case carries all its own args: predict has no -dataset
// flag, and an undefined flag exits the process under flag.ExitOnError.
func TestBadFlagsRefusedBeforeLoading(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.bin")
	model := filepath.Join(t.TempDir(), "missing.ckpt")
	cases := []struct {
		cmd  func([]string) error
		args []string
		want string
	}{
		{cmdPredict, []string{"-model", model, "-gpu", "H100"}, "unknown architecture"},
		{cmdPredict, []string{"-model", model, "-stencil", "blob2d1r"}, "unknown shape prefix"},
		{cmdRent, []string{"-dataset", missing, "-evals", "0"}, "-evals must be positive"},
		{cmdRent, []string{"-dataset", missing, "-dims", "4"}, "-dims must be 2 or 3"},
	}
	for _, c := range cases {
		err := c.cmd(c.args)
		if err == nil || errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got %v, want %q before the file is opened", c.args, err, c.want)
		}
	}
}
