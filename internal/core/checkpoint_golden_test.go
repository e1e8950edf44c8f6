package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// checkpointGoldenPath holds the SHA-256 of the checkpoint file
// Framework.Save wrote for the seeded smoke framework with GBDT +
// GBRegressor at commit d2c5de9 — the last commit whose trees were
// fitted as pointer nodes and flattened afterwards. Like
// serve_golden.json it was recorded there and is not regenerated here,
// so it proves across commits that fitting straight into columns
// changed no wire byte: not a node, a threshold, nor a column order.
const checkpointGoldenPath = "testdata/checkpoint_golden.json"

type checkpointGolden struct {
	RecordedAt string `json:"recorded_at"`
	GOARCH     string `json:"goarch"`
	Bytes      int    `json:"bytes"`
	SHA256     string `json:"sha256"`
}

// TestCheckpointBytesPinned asserts the recorded digest on a freshly
// trained framework, and that LoadFramework → Save reproduces the same
// file byte for byte.
func TestCheckpointBytesPinned(t *testing.T) {
	raw, err := os.ReadFile(checkpointGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden checkpointGolden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if golden.GOARCH != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s", golden.GOARCH, runtime.GOARCH)
	}
	if CheckpointVersion != 2 {
		t.Fatalf("CheckpointVersion %d, the pinned bytes are version 2", CheckpointVersion)
	}
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := fw.Save(&saved); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(saved.Bytes())
	if got := hex.EncodeToString(sum[:]); got != golden.SHA256 || saved.Len() != golden.Bytes {
		t.Fatalf("checkpoint is %d bytes, sha256 %s; recorded %d bytes, %s", saved.Len(), got, golden.Bytes, golden.SHA256)
	}
	lf, err := LoadFramework(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := lf.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), again.Bytes()) {
		t.Fatalf("load → save wrote %d bytes that differ from the %d loaded", again.Len(), saved.Len())
	}
}
