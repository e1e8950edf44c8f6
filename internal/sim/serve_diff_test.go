package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"stencilmart/internal/core"
	"stencilmart/internal/gpu"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/testutil"
)

// TestServePredictMatchesReferenceSubstrate is the end-to-end leg of the
// rewrite differential: a framework trained on a dataset collected by the
// pre-rewrite substrate (sim.Reference) serves byte-identical predictions
// to one trained on the compiled-evaluator collection, at GOMAXPROCS 1
// and 4. Together with the tuner and per-run differentials this pins the
// whole predict path: classification inputs, tuned OC and params, and
// batched regressor outputs all carry pre-rewrite bits. One model carries
// the three compiled collections and each probe is served three times, so
// both legs see their cells at the first lookup, with the memo filling,
// and answering from it.
func TestServePredictMatchesReferenceSubstrate(t *testing.T) {
	corpus := testutil.SmallCorpus(t)
	archs := gpu.Catalog()[:2]

	model := sim.New()
	collect := func(cells sim.Cells) *profile.Dataset {
		t.Helper()
		p := &profile.Profiler{Model: cells, SamplesPerOC: 3, Seed: 21, Workers: 0}
		d, err := p.Collect(context.Background(), corpus, archs)
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		return d
	}

	cfg := core.SmokeConfig()
	cfg.GBDT.Rounds = 5
	cfg.GBReg.Rounds = 10
	probes := []stencil.Stencil{stencil.Star(2, 2), stencil.Box(3, 1), stencil.Star(3, 3)}
	serve := func(ds *profile.Dataset) []byte {
		t.Helper()
		fw, err := core.FromDataset(cfg, ds, nil)
		if err != nil {
			t.Fatalf("FromDataset: %v", err)
		}
		if err := fw.TrainAll(context.Background(), core.ClassGBDT, core.RegGB); err != nil {
			t.Fatalf("TrainAll: %v", err)
		}
		var out bytes.Buffer
		for _, s := range probes {
			var first []byte
			for _, state := range []string{"first lookup", "memo filling", "memo hitting"} {
				pred, err := fw.ServePredict(archs[0].Name, s)
				if err != nil {
					t.Fatalf("ServePredict(%s): %v", s.Name, err)
				}
				raw, err := json.Marshal(pred)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = raw
				}
				testutil.AssertSameBytes(t, "ServePredict("+s.Name+") "+state, first, raw)
			}
			out.Write(first)
			out.WriteByte('\n')
		}
		if st := fw.Model.CacheStats(); st.Hits == 0 {
			t.Fatalf("repeated probes never hit the sim memo: %+v", st)
		}
		return out.Bytes()
	}

	oracle := serve(collect(sim.NewReference()))
	for _, procs := range []int{1, 4, 1} {
		testutil.WithGOMAXPROCS(t, procs, func() {
			testutil.AssertSameBytes(t, "ServePredict compiled vs reference substrate",
				oracle, serve(collect(model)))
		})
	}
}
