package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"

	"stencilmart/internal/opt"
	"stencilmart/internal/persist"
)

// FuzzLoadFramework feeds arbitrary checkpoint payloads — a manifest and
// a column section, framed with a fresh checksum so they get past the
// envelope — to LoadFramework. The seeds are a smoke-preset checkpoint
// and the binary damage a corrupt or hostile file carries. Whatever the
// payload, the loader returns a framework or an error, never panics, and
// allocates in proportion to the input; a framework it accepts saves
// again and scores the probe stencils on its models directly (no panic
// recovery in between), so a tree that loads but indexes past its rows
// fails here.
func FuzzLoadFramework(f *testing.F) {
	fw := ckptFramework(f)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := fw.Save(&saved); err != nil {
		f.Fatal(err)
	}
	// add seeds the checkpoint with mutate applied to its parts and tail
	// appended to its column section.
	add := func(mutate func(*ckptParts), tail ...byte) {
		p := splitCheckpoint(f, saved.Bytes())
		mutate(p)
		manifest, err := json.Marshal(p.m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(manifest, append(encodeColumns(p.cols), tail...))
	}
	add(func(*ckptParts) {})
	add(func(p *ckptParts) { p.cols[colInstOC].ints = p.cols[colInstOC].ints[:7] })
	add(func(p *ckptParts) { p.cols[colInstArch].ints[0] = int64(len(p.m.Dataset.Archs)) })
	add(func(p *ckptParts) { p.cols[colInstParams].ints = p.cols[colInstParams].ints[:25] })
	add(func(p *ckptParts) { p.cols[p.regressorCols()+nodeRight].ints[0] = 1 << 40 })
	add(func(p *ckptParts) { p.cols[colModels+nodeValue].floats = nil })
	add(func(p *ckptParts) { setSplitFeature(f, p, colModels, 1<<32) })
	add(func(p *ckptParts) { setSplitFeature(f, p, p.regressorCols(), int64(7+p.m.Schema[0].RegWidth)) })
	add(func(p *ckptParts) { p.cols[colInstTime].floats[0] = math.Float64frombits(0x7ff8000000000001) })
	add(func(p *ckptParts) { p.cols[colModels+nodeThr].floats[0] = math.Float64frombits(0x7ff8000000000001) })
	add(func(p *ckptParts) { p.cols[colResultCrashed] = column{float: true, floats: make([]float64, 8)} })
	add(func(p *ckptParts) { p.m.Regressors[0].XScale = []float64{7} })
	add(func(p *ckptParts) { p.cols[colBestTime].floats[0] *= 2 })
	add(func(p *ckptParts) { p.m.Regressors[0].Model.Ensemble.Config.LearningRate = 0 })
	// A column count past the end of the section: the last tree's right
	// column is a tag and a count of 2^28, and nothing else.
	add(func(p *ckptParts) { p.cols = p.cols[:len(p.cols)-1] }, 'i', 0x80, 0x80, 0x80, 0x80, 0x01)
	f.Fuzz(func(t *testing.T, manifest, columns []byte) {
		var framed bytes.Buffer
		if err := persist.Write(&framed, CheckpointKind, CheckpointVersion, json.RawMessage(manifest), persist.ColumnsOf(columns)); err != nil {
			t.Skip() // not JSON: the envelope's business, see FuzzPersistRead
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lf, err := LoadFramework(&framed)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+512*(len(manifest)+len(columns))); grew > bound {
			t.Fatalf("LoadFramework allocated %d bytes for a %d-byte payload (bound %d)", grew, len(manifest)+len(columns), bound)
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
