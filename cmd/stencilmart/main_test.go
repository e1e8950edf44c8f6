package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
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
// a missing file is refused too; each error (main prints it and exits 1)
// says what to run instead.
func TestLoadFrameworkRefusesAJSONDataset(t *testing.T) {
	_, err := loadFramework("../../internal/profile/testdata/dataset_parent_8a94af0.json", "smoke", 7)
	if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "`stencilmart profile`") {
		t.Fatalf("got %v, want persist.ErrCorrupt and a pointer to `stencilmart profile`", err)
	}
	_, err = loadFramework(filepath.Join(t.TempDir(), "dataset.bin"), "smoke", 7)
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "`stencilmart profile`") {
		t.Fatalf("missing file: got %v, want fs.ErrNotExist and a pointer to `stencilmart profile`", err)
	}
}

// TestProfileThenTrainMatchesBuild: the CLI's two-step path — profile to a
// dataset file, then train on it — writes the checkpoint that building
// the same preset in memory and training it writes, byte for byte, and
// profile leaves nothing beside the dataset file.
func TestProfileThenTrainMatchesBuild(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(dir, "dataset.bin")
	ckpt := filepath.Join(dir, "model.ckpt")
	if err := cmdProfile([]string{"-preset", "smoke", "-out", dataset}); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 1 || left[0] != dataset {
		t.Fatalf("profile left %q, want only %s", left, dataset)
	}
	if err := cmdTrain([]string{"-preset", "smoke", "-dataset", dataset, "-out", ckpt}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.Build(context.Background(), core.SmokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.TrainAll(context.Background(), core.ClassGBDT, core.RegGB); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fw.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("profile + train checkpoint (%d bytes) differs from Build + TrainAll + Save (%d bytes)", len(got), want.Len())
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
// generator sizes its corpus, not passed on as a slice capacity, and an
// -order outside [1, 4] before the generator reads 0 as its default.
func TestGenRejectsNoStencils(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "-n must be positive"},
		{[]string{"-n", "-3"}, "-n must be positive"},
		{[]string{"-order", "0"}, "-order must be in [1,4]"},
		{[]string{"-order", "5"}, "-order must be in [1,4]"},
	}
	for _, c := range cases {
		err := cmdGen(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got %v, want %q", c.args, err, c.want)
		}
	}
}

// TestBadFlagsRefusedBeforeLoading: predict and serve refuse a bad flag
// before they open -model, and train before it opens -dataset. The files
// named here do not exist, so a flag checked only after loading would
// surface as the file-open error instead. Each case carries all its own
// args: predict has no -dataset flag. An undefined flag exits the process
// with status 2 under flag.ExitOnError, and so does a negative numeric
// serve flag (zero selects its default), so those cases (want
// exitUndefined or exitNegative) run in a child copy of the test binary,
// which names its files in the parent's temporary directory.
func TestBadFlagsRefusedBeforeLoading(t *testing.T) {
	const exitUndefined, exitNegative = "flag provided but not defined", "serve: negative"
	const caseEnv, dirEnv = "STENCILMART_BAD_FLAG_CASE", "STENCILMART_BAD_FLAG_DIR"
	dir := os.Getenv(dirEnv)
	if dir == "" {
		dir = t.TempDir()
	}
	missing := filepath.Join(dir, "missing.bin")
	model := filepath.Join(dir, "missing.ckpt")
	cases := []struct {
		cmd  func([]string) error
		args []string
		want string
	}{
		{cmdPredict, []string{"-model", model, "-gpu", "H100"}, "unknown architecture"},
		{cmdPredict, []string{"-model", model, "-stencil", "blob2d1r"}, "unknown shape prefix"},
		{cmdTrain, []string{"-dataset", missing, "-classifier", "SVM"}, "unknown classifier"},
		{cmdTrain, []string{"-dataset", missing, "-regressor", "SVR"}, "unknown regressor"},
		{cmdProfile, []string{"-preset", "smoke", "-out", missing, "-chaos"}, exitUndefined},
		{cmdProfile, []string{"-preset", "smoke", "-out", missing, "-chaos-seed", "1"}, exitUndefined},
		{cmdProfile, []string{"-preset", "smoke", "-out", missing, "-journal", "off"}, exitUndefined},
		{cmdServe, []string{"-model", model, "-batch-size", "8"}, exitUndefined},
		{cmdServe, []string{"-model", model, "-max-inflight", "-1"}, exitNegative},
		{cmdServe, []string{"-model", model, "-timeout", "-1s"}, exitNegative},
	}
	if i, err := strconv.Atoi(os.Getenv(caseEnv)); err == nil {
		// The child: a case that returns instead of exiting exits 0.
		cases[i].cmd(cases[i].args)
		os.Exit(0)
	}
	for i, c := range cases {
		if c.want == exitUndefined || c.want == exitNegative {
			child := exec.Command(os.Args[0], "-test.run=^TestBadFlagsRefusedBeforeLoading$")
			child.Env = append(os.Environ(), fmt.Sprintf("%s=%d", caseEnv, i), dirEnv+"="+dir)
			out, err := child.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !bytes.Contains(out, []byte(c.want)) {
				t.Errorf("%v: got %v, output %q; want exit 2 saying %q", c.args, err, out, c.want)
			}
			continue
		}
		err := c.cmd(c.args)
		if err == nil || errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got %v, want %q before the file is opened", c.args, err, c.want)
		}
	}
}
