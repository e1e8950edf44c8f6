package main

import (
	"time"

	"stencilmart/internal/core"
)

// trainLayers is the per-layer half of a traced train_ckpt run: the split
// of the traced cycles, the two fits on their own, and the quality of the
// models the cycle produces, so a speed-up bought with accuracy shows.
func trainLayers(r *run, cycles []cycleTimes) error {
	median := func(pick func(cycleTimes) float64) float64 {
		vals := make([]float64, len(cycles))
		for i, c := range cycles {
			vals[i] = pick(c)
		}
		return summarize(vals).Median
	}
	save := median(func(c cycleTimes) float64 { return c.save.Seconds() })
	load := median(func(c cycleTimes) float64 { return c.load.Seconds() })
	mb := float64(cycles[0].ckptBytes) / 1e6
	r.layer("train.collect_s", median(func(c cycleTimes) float64 { return c.collect.Seconds() }))
	r.layer("train.merge_s", median(func(c cycleTimes) float64 { return c.merge.Seconds() }))
	r.layer("train.trainall_s", median(func(c cycleTimes) float64 { return c.trainAll.Seconds() }))
	r.layer("train.save_s", save)
	r.layer("train.load_s", load)
	r.layer("train.compile_f32_ms", median(func(c cycleTimes) float64 { return c.compileF32Ms }))
	r.layer("registry.publish_ms", median(func(c cycleTimes) float64 { return c.publish.Seconds() * 1e3 }))
	r.layer("ckpt.mb", mb)
	r.layer("persist.ckpt_write_mb_per_s", mb/save)
	r.layer("persist.ckpt_read_mb_per_s", mb/load)

	cfg := treeModels.config()
	fw, err := core.Build(r.ctx, cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, _, err := fw.TrainClassifier(core.ClassGBDT, 0, 2, fw.StencilIndices(2), cfg.Seed); err != nil {
		return err
	}
	r.layer("tree.gbdt_fit_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	t0 = time.Now()
	if _, err := fw.TrainRegressor(core.RegGB, 2, instancesOf(fw, 2, cfg.MaxRegressionInstances), cfg.Seed); err != nil {
		return err
	}
	r.layer("tree.gbreg_fit_ms", float64(time.Since(t0).Nanoseconds())/1e6)

	// Five-fold quality of the architectures the cycle trains, on the
	// corpus it trains them on: the same numbers whatever -seed is.
	var acc, mape float64
	dims := []int{2, 3}
	for _, arch := range fw.Dataset.Archs {
		for _, d := range dims {
			a, err := fw.ClassifierAccuracy(core.ClassGBDT, arch.Name, d)
			if err != nil {
				return err
			}
			acc += a
		}
	}
	for _, d := range dims {
		_, overall, err := fw.RegressorMAPE(core.RegGB, d)
		if err != nil {
			return err
		}
		mape += 100 * overall
	}
	r.layer("quality.acc_top1", acc/float64(len(dims)*len(fw.Dataset.Archs)))
	r.layer("quality.mape_pct", mape/float64(len(dims)))
	return nil
}
