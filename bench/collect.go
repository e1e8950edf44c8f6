package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
)

// collection is the corpus the two collection workloads profile and the
// digest every pass over it must reproduce.
type collection struct {
	corpus []stencil.Stencil
	archs  []gpu.Arch
	seed   int64 // the profiler's sampling seed, from -seed
	digest string
}

func (c *collection) cells() int { return len(c.corpus) * len(c.archs) }

// profiler returns a fresh profiler over a fresh simulator with the
// shipped defaults: each pass starts as cold as a new process would.
func (c *collection) profiler(workers int) *profile.Profiler {
	p := profile.NewProfiler(core.DefaultConfig().SamplesPerOC, c.seed)
	p.Model = sim.New()
	p.Workers = workers
	return p
}

// newCollection generates the default corpus (core.DefaultConfig's sizes
// and corpus seed: pass time moves 12% between corpus seeds, see
// fixture.go) and measures it once in memory for the reference digest.
// -seed drives the parameter sampling instead.
func newCollection(r *run) (*collection, error) {
	cfg := core.DefaultConfig()
	corpus, err := gen.MixedCorpus(cfg.Corpus2D, cfg.Corpus3D, cfg.MaxOrder, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &collection{corpus: corpus, archs: gpu.Catalog(), seed: r.seed + 1000}
	ds, err := c.profiler(0).Collect(r.ctx, c.corpus, c.archs)
	if err != nil {
		return nil, err
	}
	c.digest = datasetDigest(ds)
	return c, nil
}

// datasetDigest is the sha256 of every measured value in a dataset, in a
// fixed binary layout: per-OC results of every (arch, stencil) profile,
// then every regression instance. Hashing ~3 MB of packed fields costs a
// few milliseconds where hashing the 20 MB WriteJSON form would cost as
// much as the pass being verified.
func datasetDigest(ds *profile.Dataset) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	params := func(p opt.Params) {
		smem := 0
		if p.UseSmem {
			smem = 1
		}
		for _, v := range [...]int{p.BlockX, p.BlockY, p.Merge, p.MergeDim, p.StreamTile, p.StreamDim, p.Unroll, smem, p.TBDepth, p.PrefetchDepth} {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(v))
		}
	}
	for ai := range ds.Profiles {
		for _, pr := range ds.Profiles[ai] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(pr.StencilIdx))
			buf = append(buf, pr.Arch...)
			buf = append(buf, byte(pr.BestOC))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pr.BestTime))
			for _, res := range pr.Results {
				crashed := byte(0)
				if res.Crashed {
					crashed = 1
				}
				buf = append(buf, byte(res.OC), crashed)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Time))
				params(res.Params)
			}
			flush()
		}
	}
	for _, in := range ds.Instances {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.StencilIdx))
		buf = append(buf, byte(in.OC))
		buf = append(buf, in.Arch...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(in.Time))
		params(in.Params)
		if len(buf) > 1<<15 {
			flush()
		}
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

// runCollect is collect_mem (journal false) and collect_journal.
//
// In memory an operation is one Collect pass over the corpus. Journaled,
// it is a pair: CollectJournal into a new WAL, then CollectJournal again
// on the finished file, which replays it and measures nothing. The gated
// metrics time the pair (ops_per_s is cells through the pair per second);
// the two halves are reported beside them as collect_s and resume_s, so a
// WAL change that buys append speed with replay cost shows in one row.
func runCollect(r *run, journal bool) (*row, error) {
	row := r.newRow()
	col, setupS, err := setUp(func() (*collection, error) { return newCollection(r) }, func(*collection) {})
	if err != nil {
		return nil, err
	}
	row.Digests = map[string]string{"dataset_sha256": col.digest}

	d := r.interval()
	if r.traced() {
		d /= 2
	}
	var ops, collects, resumes []float64 // pair (or pass) ms; collecting pass s; resume s
	begin := time.Now()
	for pass := 0; time.Since(begin) < d; pass++ {
		root := r.rec.begin("bench.pass", 0, int64(pass))
		var took, resumed time.Duration
		if journal {
			took, resumed, err = col.journalPair(r, row, root, pass)
			resumes = append(resumes, resumed.Seconds())
		} else {
			took, err = col.memPass(r, row, root, pass)
		}
		r.rec.end(root)
		if err != nil {
			return nil, err
		}
		collects = append(collects, took.Seconds())
		ops = append(ops, float64(took+resumed)/1e6)
	}
	row.Seconds = time.Since(begin).Seconds()
	dist := describeOps(ops)
	row.setGated(setupS, float64(col.cells())/(dist.Op/1e3), dist)
	if journal {
		row.report("collect_s", best(collects))
		row.report("resume_s", best(resumes))
	}
	if r.traced() {
		if err := collectLayers(r, row, col, journal, collects, resumes); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// verify counts one pass as an operation and compares its dataset with
// the reference.
func (c *collection) verify(row *row, what string, pass int, ds *profile.Dataset) {
	row.Attempted++
	if got := datasetDigest(ds); got != c.digest {
		row.fail("%s of pass %d produced dataset %s, want %s", what, pass, got[:12], c.digest[:12])
		return
	}
	row.Succeeded++
}

func (c *collection) memPass(r *run, row *row, root int, pass int) (time.Duration, error) {
	p := c.profiler(0)
	id := r.rec.begin("profile.Collect", root, int64(pass))
	t0 := time.Now()
	ds, err := p.Collect(r.ctx, c.corpus, c.archs)
	took := time.Since(t0)
	r.rec.end(id)
	if err != nil {
		return 0, err
	}
	c.verify(row, "Collect", pass, ds)
	return took, nil
}

func (c *collection) journalPair(r *run, row *row, root int, pass int) (took, resumed time.Duration, err error) {
	path := filepath.Join(r.dir, fmt.Sprintf("pass-%d.wal", pass))
	defer os.Remove(path)

	id := r.rec.begin("profile.CollectJournal", root, int64(pass))
	t0 := time.Now()
	ds, _, err := c.profiler(0).CollectJournal(r.ctx, path, c.corpus, c.archs)
	took = time.Since(t0)
	r.rec.end(id)
	if err != nil {
		return 0, 0, err
	}
	c.verify(row, "CollectJournal", pass, ds)

	id = r.rec.begin("profile.CollectJournal(resume)", root, int64(pass))
	t0 = time.Now()
	ds, stats, err := c.profiler(0).CollectJournal(r.ctx, path, c.corpus, c.archs)
	resumed = time.Since(t0)
	r.rec.end(id)
	if err != nil {
		return 0, 0, err
	}
	c.verify(row, "resume", pass, ds)
	row.check(stats.Resumed == c.cells() && stats.Measured == 0,
		"resume of a complete journal replayed %d and re-measured %d of %d cells", stats.Resumed, stats.Measured, c.cells())
	return took, resumed, nil
}
