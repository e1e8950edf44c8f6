package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"stencilmart/internal/opt"
	"stencilmart/internal/persist"
)

// FuzzLoadFramework feeds arbitrary checkpoint payloads — framed with a
// fresh checksum, so they get past the envelope — to LoadFramework. The
// seeds are a smoke-preset checkpoint and the column-level damage a
// hand-edited or hostile file carries. Whatever the payload, the loader
// returns a framework or an error, never panics, and allocates in
// proportion to the input; a framework it accepts saves again and
// scores the probe stencils on its models directly (no panic recovery in
// between), so a tree that loads but indexes past its rows fails here.
func FuzzLoadFramework(f *testing.F) {
	fw := ckptFramework(f)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		f.Fatal(err)
	}
	mutated := func(mutate func(*checkpointPayload)) []byte {
		var buf bytes.Buffer
		if err := fw.Save(&buf); err != nil {
			f.Fatal(err)
		}
		var p checkpointPayload
		if err := persist.Read(&buf, CheckpointKind, CheckpointVersion, &p); err != nil {
			f.Fatal(err)
		}
		mutate(&p)
		raw, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	valid := mutated(func(*checkpointPayload) {})
	f.Add(valid)
	f.Add(mutated(func(p *checkpointPayload) { p.Dataset.Instances.OC = p.Dataset.Instances.OC[:7] }))
	f.Add(mutated(func(p *checkpointPayload) { p.Dataset.Instances.Arch[0] = len(p.Dataset.Archs) }))
	f.Add(mutated(func(p *checkpointPayload) { p.Dataset.Instances.Params = p.Dataset.Instances.Params[:25] }))
	f.Add(mutated(func(p *checkpointPayload) { p.Regressors[0].Model.GBReg.Trees[0].Right[0] = 1 << 40 }))
	f.Add(mutated(func(p *checkpointPayload) { p.Classifiers[0].Model.GBDT.Trees[0][0].Value = nil }))
	f.Add(mutated(func(p *checkpointPayload) { setSplitFeature(f, &p.Classifiers[0].Model.GBDT.Trees[0][0], 1<<32) }))
	f.Add(mutated(func(p *checkpointPayload) {
		setSplitFeature(f, &p.Regressors[0].Model.GBReg.Trees[0], 7+p.Schema[0].RegWidth)
	}))
	f.Add(bytes.Replace(valid, []byte(`"time":[`), []byte(`"time":["NaN",`), 1))
	f.Add(bytes.Replace(valid, []byte(`"t":[`), []byte(`"t":["Inf",`), 1))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var framed bytes.Buffer
		if err := persist.Write(&framed, CheckpointKind, CheckpointVersion, json.RawMessage(payload)); err != nil {
			t.Skip() // not JSON: the envelope's business, see FuzzPersistRead
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lf, err := LoadFramework(&framed)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+512*len(payload)); grew > bound {
			t.Fatalf("LoadFramework allocated %d bytes for a %d-byte payload (bound %d)", grew, len(payload), bound)
		}
		if err != nil {
			var ke *persist.KindError
			var ve *persist.VersionError
			if errors.Is(err, persist.ErrMagic) || errors.Is(err, persist.ErrChecksum) || errors.As(err, &ke) || errors.As(err, &ve) {
				t.Fatalf("a freshly framed payload failed the envelope: %v", err)
			}
			return
		}
		if err := lf.Dataset.Validate(); err != nil {
			t.Fatalf("loaded a dataset its own Validate rejects: %v", err)
		}
		if err := lf.Save(&bytes.Buffer{}); err != nil {
			t.Fatalf("loaded framework does not save: %v", err)
		}
		for _, s := range ckptProbes() {
			for _, a := range lf.Dataset.Archs {
				lf.PredictClassTrained(a.Name, s)
			}
			if reg, ok := lf.Trained.Regressors[s.Dims]; ok {
				reg.PredictStencilSeconds(s, opt.Opt(0), opt.Params{}, lf.Dataset.Archs)
			}
		}
	})
}
