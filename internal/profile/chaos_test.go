package profile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/fault"
	"stencilmart/internal/gpu"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/testutil"
)

// chaosProfiler builds the fault-tolerant collection stack the chaos
// smoke run uses: the default injector config (15% transient errors plus
// panics, NaN/Inf samples, and timing spikes) wrapped by retries and
// median-of-3 trials.
func chaosProfiler(workers int) (*profile.Profiler, *fault.Injector) {
	injector := fault.Wrap(sim.New(), fault.DefaultConfig(99))
	p := &profile.Profiler{
		Runner:       injector,
		SamplesPerOC: 3,
		Seed:         21,
		Workers:      workers,
		Trials:       3,
		Retry: profile.RetryPolicy{
			MaxAttempts: 6,
			Sleep:       func(time.Duration) {},
		},
	}
	return p, injector
}

// TestChaosDifferential is the fault-tolerance acceptance test: a
// collection run under deterministic fault injection — transient errors
// on >10% of sites, at least one injected panic, non-finite samples, and
// timing spikes — must produce a dataset bitwise-identical to a
// fault-free run, and a framework trained on it must serve bitwise-
// identical predictions.
func TestChaosDifferential(t *testing.T) {
	corpus := testutil.SmallCorpus(t)
	archs := gpu.Catalog()[:2]

	clean := &profile.Profiler{Model: sim.New(), SamplesPerOC: 3, Seed: 21, Workers: 1}
	cleanDS, err := clean.Collect(context.Background(), corpus, archs)
	if err != nil {
		t.Fatalf("clean Collect: %v", err)
	}
	cleanBytes := testutil.DatasetBytes(t, cleanDS)

	chaos, injector := chaosProfiler(4)
	chaosDS, err := chaos.Collect(context.Background(), corpus, archs)
	if err != nil {
		t.Fatalf("Collect under injection: %v", err)
	}
	chaosBytes := testutil.DatasetBytes(t, chaosDS)
	testutil.AssertSameBytes(t, "chaos vs clean dataset", cleanBytes, chaosBytes)

	// The run must actually have been chaotic: every fault class fired,
	// panics included, and transient errors hit >= 10% of sites.
	st := injector.Stats()
	t.Logf("injected faults: %+v (total %d over %d sites)", st, st.Total(), st.Sites)
	if st.Panics < 1 {
		t.Errorf("no panic was injected (stats %+v)", st)
	}
	if st.Sites == 0 || st.Transients < st.Sites/10 {
		t.Errorf("transient errors hit %d of %d sites, want >= 10%%", st.Transients, st.Sites)
	}
	for name, n := range map[string]uint64{
		"nan": st.NaNs, "inf": st.Infs, "spike": st.Spikes,
	} {
		if n < 1 {
			t.Errorf("fault class %s never fired (stats %+v)", name, st)
		}
	}

	// Worker scheduling must not interact with injection: a serial chaos
	// run (fresh injector, same seed) produces the same bytes.
	serialChaos, _ := chaosProfiler(1)
	serialDS, err := serialChaos.Collect(context.Background(), corpus, archs)
	if err != nil {
		t.Fatalf("serial Collect under injection: %v", err)
	}
	testutil.AssertSameBytes(t, "serial vs parallel chaos dataset", cleanBytes, testutil.DatasetBytes(t, serialDS))

	// End-to-end: frameworks trained on the clean and chaos-collected
	// datasets serve identical predictions. Both datasets are re-read from
	// their serialized bytes — the exact artifact a collection run leaves
	// behind.
	cfg := core.SmokeConfig()
	cfg.GBDT.Rounds = 5
	cfg.GBReg.Rounds = 10
	probes := []stencil.Stencil{stencil.Star(2, 2), stencil.Box(3, 1)}
	predict := func(raw []byte) []byte {
		t.Helper()
		ds, err := profile.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-read dataset: %v", err)
		}
		fw, err := core.FromDataset(cfg, ds, nil)
		if err != nil {
			t.Fatalf("FromDataset: %v", err)
		}
		if err := fw.TrainAll(context.Background(), core.ClassGBDT, core.RegGB); err != nil {
			t.Fatalf("TrainAll: %v", err)
		}
		var out bytes.Buffer
		for _, s := range probes {
			pred, err := fw.ServePredict(archs[0].Name, s)
			if err != nil {
				t.Fatalf("ServePredict(%s): %v", s.Name, err)
			}
			raw, err := json.Marshal(pred)
			if err != nil {
				t.Fatal(err)
			}
			out.Write(raw)
			out.WriteByte('\n')
		}
		return out.Bytes()
	}
	testutil.AssertSameBytes(t, "chaos vs clean predictions", predict(cleanBytes), predict(chaosBytes))
}
