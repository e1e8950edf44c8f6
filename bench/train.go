package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/profile"
	"stencilmart/internal/serve"
	"stencilmart/internal/sim"
)

// trainBed is the reference a train cycle is checked against: a
// framework trained in memory and its byte-exact answers to a probe set
// (the 24 named bodies plus generated stencils drawn from -seed). A cycle
// passes when the server started from its checkpoint file gives the same
// bytes: training is deterministic and the checkpoint round-trips.
type trainBed struct {
	probes []request
	want   [][]byte
}

const trainProbes = 16 // generated stencils asked on top of the named bodies

func newTrainBed(r *run) (*trainBed, error) {
	ref, err := treeModels.train(r.ctx)
	if err != nil {
		return nil, err
	}
	bed := &trainBed{}
	if bed.probes, err = hotRequests(); err != nil {
		return nil, err
	}
	fresh, err := distinctRequests(r.seed, trainProbes)
	if err != nil {
		return nil, err
	}
	bed.probes = append(bed.probes, fresh...)
	direct := make([]core.ServeRequest, len(bed.probes))
	for i, q := range bed.probes {
		direct[i] = q.direct
	}
	bed.want, err = directAnswers(r.ctx, ref, nil, "", direct)
	return bed, err
}

// cycleTimes is one train-to-served cycle.
type cycleTimes struct {
	collect, merge, trainAll, save time.Duration // train_s = their sum
	load, publish, first           time.Duration // load_s = their sum
	compileF32Ms                   float64
	ckptBytes                      int64
}

func (c cycleTimes) trainS() float64 { return (c.collect + c.merge + c.trainAll + c.save).Seconds() }
func (c cycleTimes) loadS() float64  { return (c.load + c.publish + c.first).Seconds() }

// undisturbed is the cycle no neighbour interrupted: every stage at the
// best time any of the run's cycles gave it. A cycle is 2-3 s of six
// stages (seven traced) and a run has eight of them, so a whole cycle that
// nothing disturbed is rare (one run's three cycles took 6.3, 6.6 and
// 13.2 s) where every stage meets a quiet half second in some cycle: the
// best slice of stats.go with a stage as the slice.
func undisturbed(cycles []cycleTimes) cycleTimes {
	u := cycles[0]
	for _, c := range cycles[1:] {
		u.collect, u.merge, u.trainAll, u.save = min(u.collect, c.collect), min(u.merge, c.merge), min(u.trainAll, c.trainAll), min(u.save, c.save)
		u.load, u.publish, u.first = min(u.load, c.load), min(u.publish, c.publish), min(u.first, c.first)
	}
	return u
}

// runTrain is train_ckpt. An operation is one cycle: config to checkpoint
// on disk (core.Build, TrainAll, SaveFile: train_s), then checkpoint file
// to first answered /predict (LoadFrameworkFile, registry publish with
// its f32 compile, server start, one request: load_s). The gated metrics
// time the undisturbed cycle; its train_s and load_s are reported beside
// them, so a change that moves cost from save to load shows in one row.
func runTrain(r *run) (*row, error) {
	row := r.newRow()
	bed, setupS, err := setUp(func() (*trainBed, error) { return newTrainBed(r) }, func(*trainBed) {})
	if err != nil {
		return nil, err
	}
	d := r.interval()
	if r.traced() {
		d /= 2
	}
	var cycles []cycleTimes
	begin := time.Now()
	for i := 0; time.Since(begin) < d; i++ {
		c, err := bed.cycle(r, row, i)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
	}
	row.Seconds = time.Since(begin).Seconds()
	var ops []float64
	for _, c := range cycles {
		ops = append(ops, (c.trainS()+c.loadS())*1e3)
	}
	dist := describeOps(ops)
	u := undisturbed(cycles)
	dist.Op = (u.trainS() + u.loadS()) * 1e3
	row.setGated(setupS, 1/(dist.Op/1e3), dist)
	row.report("train_s", u.trainS())
	row.report("load_s", u.loadS())
	for name, d := range map[string]time.Duration{"stage_build_s": u.collect + u.merge, "stage_trainall_s": u.trainAll, "stage_save_s": u.save, "stage_loadfile_s": u.load, "stage_publish_s": u.publish, "stage_first_s": u.first} {
		row.report(name, d.Seconds())
	}
	row.report("ckpt_mb", float64(cycles[0].ckptBytes)/1e6)
	if r.traced() {
		if err := trainLayers(r, cycles); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// cycle runs one train-save-load-serve cycle and checks the served
// answers. In the traced run core.Build is replaced by the two calls it
// makes (Collect, FromDataset) so collection and merging get their own
// spans; the probe answers prove the result is the same framework.
func (b *trainBed) cycle(r *run, row *row, i int) (cycleTimes, error) {
	var c cycleTimes
	op := int64(i)
	root := r.rec.begin("bench.cycle", 0, op)
	defer r.rec.end(root)
	timeCall := func(name string, dst *time.Duration, call func() error) error {
		id := r.rec.begin(name, root, op)
		t0 := time.Now()
		err := call()
		*dst = time.Since(t0)
		r.rec.end(id)
		return err
	}

	cfg := treeModels.config()
	var fw *core.Framework
	if r.traced() {
		corpus, err := gen.MixedCorpus(cfg.Corpus2D, cfg.Corpus3D, cfg.MaxOrder, cfg.Seed)
		if err != nil {
			return c, err
		}
		model := sim.New()
		prof := profile.NewProfiler(cfg.SamplesPerOC, cfg.Seed+1000)
		prof.Model = model
		var ds *profile.Dataset
		if err := timeCall("profile.Collect", &c.collect, func() (err error) {
			ds, err = prof.Collect(r.ctx, corpus, gpu.Catalog())
			return err
		}); err != nil {
			return c, err
		}
		if err := timeCall("core.FromDataset", &c.merge, func() (err error) {
			fw, err = core.FromDataset(cfg, ds, model)
			return err
		}); err != nil {
			return c, err
		}
	} else if err := timeCall("core.Build", &c.collect, func() (err error) {
		fw, err = core.Build(r.ctx, cfg)
		return err
	}); err != nil {
		return c, err
	}
	ck, rk := treeModels.kinds()
	if err := timeCall("core.TrainAll", &c.trainAll, func() error { return fw.TrainAll(r.ctx, ck, rk) }); err != nil {
		return c, err
	}
	path := filepath.Join(r.dir, fmt.Sprintf("cycle-%d.ckpt", i))
	defer os.Remove(path)
	if err := timeCall("core.SaveFile", &c.save, func() error { return fw.SaveFile(path) }); err != nil {
		return c, err
	}
	if st, err := os.Stat(path); err == nil {
		c.ckptBytes = st.Size()
	}

	var loaded *core.Framework
	if err := timeCall("core.LoadFrameworkFile", &c.load, func() (err error) {
		loaded, err = core.LoadFrameworkFile(path)
		return err
	}); err != nil {
		return c, err
	}
	var fx *fixture
	if err := timeCall("serve.NewWithOptions", &c.publish, func() (err error) {
		fx, err = serveFramework(loaded, serve.Options{})
		return err
	}); err != nil {
		return c, err
	}
	defer fx.close()
	var buf bytes.Buffer
	answer := func(k int) bool {
		status, err := fx.post("", b.probes[k].body, &buf)
		return err == nil && status == http.StatusOK && bytes.Equal(buf.Bytes(), b.want[k])
	}
	firstOK := false
	_ = timeCall("serve.roundtrip(first)", &c.first, func() error { firstOK = answer(0); return nil })
	if v := fx.srv.Registry().Versions(); len(v) > 0 {
		c.compileF32Ms = v[0].CompileMillis
	}

	row.Attempted++
	same := firstOK
	for k := 1; k < len(b.probes) && same; k++ {
		same = answer(k)
	}
	if same {
		row.Succeeded++
	} else {
		row.fail("cycle %d: the server started from the checkpoint answered a probe differently from the framework trained in memory", i)
	}
	return c, nil
}
