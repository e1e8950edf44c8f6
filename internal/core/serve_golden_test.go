package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"stencilmart/internal/stencil"
)

// serveGoldenPath holds SHA-256 digests of every response the serving
// pipeline produced for goldenRequests at commit cac47ef — the last
// commit with three separate pipeline bodies — on the f32 lane, for a
// tree and a network mechanism pair. (That commit also served a float64
// lane; its cells were dropped with the lane.) The file was written by running
// serveGoldenDigests against that tree; it is not regenerated from this
// one, which is what makes it a cross-commit proof that response bodies
// and error texts are bitwise what they were.
const serveGoldenPath = "testdata/serve_golden.json"

// serveGolden is the checked-in record. Floating-point results are only
// comparable on the architecture that recorded them (FMA contraction
// differs elsewhere), so the test skips on any other GOARCH.
type serveGolden struct {
	RecordedAt string `json:"recorded_at"`
	GOARCH     string `json:"goarch"`
	// Digests maps "<classifier>_<regressor>/<lane>" to one hex digest per
	// goldenRequests entry, index-aligned.
	Digests map[string][]string `json:"digests"`
}

// goldenRequests is the fixed request table: every probe on every smoke
// GPU, two irregular never-trained shapes, a duplicate, and the two
// admission failures.
func goldenRequests(t testing.TB, fw *Framework) []ServeRequest {
	t.Helper()
	skew2, err := stencil.New("skew2d", 2, []stencil.Point{{}, {Dx: 1}, {Dx: -2}, {Dy: 3}, {Dx: 1, Dy: -1}})
	if err != nil {
		t.Fatal(err)
	}
	skew3, err := stencil.New("skew3d", 3, []stencil.Point{{}, {Dz: 2}, {Dx: -1, Dz: -1}, {Dy: 4}, {Dx: 2, Dy: 1, Dz: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []ServeRequest
	for _, s := range append(ckptProbes(), skew2, skew3) {
		for _, a := range fw.Dataset.Archs {
			reqs = append(reqs, ServeRequest{GPU: a.Name, Stencil: s})
		}
	}
	return append(reqs,
		reqs[0],
		ServeRequest{GPU: "NoSuchGPU", Stencil: stencil.Star(2, 1)},
		ServeRequest{GPU: fw.Dataset.Archs[0].Name, Stencil: stencil.Stencil{Name: "empty", Dims: 2}},
	)
}

// outcomeDigest hashes what a client would observe (outcomeBytes).
func outcomeDigest(t testing.TB, o ServeOutcome) string {
	t.Helper()
	sum := sha256.Sum256(outcomeBytes(t, o))
	return hex.EncodeToString(sum[:])
}

// serveGoldenDigests trains each mechanism pair on the shared smoke
// framework and digests goldenRequests through both serving entry points
// of the framework serving returns for it (the trained one itself, or its
// checkpoint read back). The result maps entry point to golden cell to
// digests.
func serveGoldenDigests(t testing.TB, trained *Framework, serving func(*Framework) *Framework) map[string]map[string][]string {
	t.Helper()
	pairs := []struct {
		ck ClassifierKind
		rk RegressorKind
	}{
		{ClassGBDT, RegGB},
		{ClassConvNet, RegConvMLP},
	}
	out := map[string]map[string][]string{"ServePredictBatch": {}, "ServePredictBatchF32": {}}
	for _, pair := range pairs {
		if err := trained.TrainAll(context.Background(), pair.ck, pair.rk); err != nil {
			t.Fatal(err)
		}
		fw := serving(trained)
		reqs := goldenRequests(t, fw)
		cell := pair.ck.String() + "_" + pair.rk.String() + "/f32"
		for entry, outs := range map[string][]ServeOutcome{
			"ServePredictBatch":    fw.ServePredictBatch(context.Background(), reqs),
			"ServePredictBatchF32": fw.ServePredictBatchF32(context.Background(), reqs, NewServeArena()),
		} {
			if len(outs) != len(reqs) {
				t.Fatalf("%s %s: %d outcomes for %d requests", entry, cell, len(outs), len(reqs))
			}
			for _, o := range outs {
				out[entry][cell] = append(out[entry][cell], outcomeDigest(t, o))
			}
		}
	}
	return out
}

// TestServeGoldenCrossCommit asserts that every response body and error
// text both serving entry points produce today hashes to what the
// pre-unification f32 pipeline produced — from the framework as trained,
// and from the same
// framework after Save → LoadFramework, so "loaded predicts bitwise what
// trained predicts" is pinned against the recorded digests and not only
// against itself.
func TestServeGoldenCrossCommit(t *testing.T) {
	raw, err := os.ReadFile(serveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden serveGolden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if golden.GOARCH != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s", golden.GOARCH, runtime.GOARCH)
	}
	fw := ckptFramework(t)
	reqs := goldenRequests(t, fw)
	for name, serving := range map[string]func(*Framework) *Framework{
		"trained":  func(f *Framework) *Framework { return f },
		"reloaded": func(f *Framework) *Framework { return reloaded(t, f) },
	} {
		for entry, got := range serveGoldenDigests(t, fw, serving) {
			if len(got) != len(golden.Digests) {
				t.Fatalf("%s %s: golden covers %d framework cells, this run %d", name, entry, len(golden.Digests), len(got))
			}
			for cell, want := range golden.Digests {
				if len(got[cell]) != len(want) {
					t.Fatalf("%s %s %s: golden has %d digests, this run %d", name, entry, cell, len(want), len(got[cell]))
				}
				for i := range want {
					if got[cell][i] != want[i] {
						t.Errorf("%s %s %s: request %d (%s on %s) digest %s, recorded %s",
							name, entry, cell, i, reqs[i].Stencil.Name, reqs[i].GPU, got[cell][i], want[i])
					}
				}
			}
		}
	}
}
