package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"stencilmart/internal/campaign"
	"stencilmart/internal/core"
	"stencilmart/internal/gen"
	"stencilmart/internal/opt"
	"stencilmart/internal/persist"
	"stencilmart/internal/profile"
	"stencilmart/internal/stencil"
)

// collectLayers is the per-layer half of a traced collection run: the
// layers every pass goes through (gen, opt, profile over sim), and for
// the journaled workload persist and campaign as well. collects and
// resumes are the traced passes' own timings.
func collectLayers(r *run, row *row, col *collection, journal bool, collects, resumes []float64) error {
	g2, err := gen.New(gen.Options{Dims: 2, MaxOrder: stencil.MaxOrder}, r.seed)
	if err != nil {
		return err
	}
	g3, err := gen.New(gen.Options{Dims: 3, MaxOrder: stencil.MaxOrder}, r.seed+1)
	if err != nil {
		return err
	}
	// One sample is a 2-D and a 3-D stencil, the corpus mix.
	r.layer("gen.stencil_us", probeBatched(math.MaxInt, 2, func(i int) {
		if i%2 == 0 {
			g2.Next()
		} else {
			g3.Next()
		}
	})/1e3)
	rng := rand.New(rand.NewSource(r.seed))
	combos := opt.Combinations()
	r.layer("opt.sample_ns", probeBatched(math.MaxInt, 60, func(i int) { opt.Sample(combos[i%len(combos)], 2+i%2, rng) }))

	// One cell at a time on one goroutine, each cell cold.
	one := col.profiler(1)
	r.layer("profile.cell_us", probe(col.cells(), func(i int) {
		si, ai := i/len(col.archs), i%len(col.archs)
		_, _, _ = one.ProfileOne(r.ctx, si, col.corpus[si], col.archs[ai])
	})/1e3)

	// One serial pass, alone in the process: its allocations are the
	// pass's allocations.
	var ds *profile.Dataset
	serial := col.profiler(1)
	t0 := time.Now()
	allocs, bytes := mallocsDuring(func() { ds, err = serial.Collect(r.ctx, col.corpus, col.archs) })
	took := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	col.verify(row, "serial Collect", 0, ds)
	cells := float64(col.cells())
	r.layer("profile.allocs_per_cell", allocs/cells)
	r.layer("profile.kb_per_cell", bytes/1e3/cells)
	r.layer("profile.instances_per_cell", float64(len(ds.Instances))/cells)
	r.layer("profile.serial_cells_per_s", cells/took)
	if !journal {
		// Workers 0 (one per core) over Workers 1, both in memory.
		r.layer("profile.scaling_x", took/best(collects))
		return nil
	}
	r.layer("journal.collect_s", best(collects))
	r.layer("journal.resume_s", best(resumes))
	if err := persistProbes(r, row, col); err != nil {
		return err
	}
	return campaignProbe(r, row, col, best(collects))
}

// persistProbes times the WAL alone: appends of a cell-sized and of a
// one-byte record (the latter is the filesystem's fsync floor), and
// reading a complete journal back.
func persistProbes(r *run, row *row, col *collection) error {
	path := filepath.Join(r.dir, "probe.wal")
	defer os.Remove(path)
	if _, _, err := col.profiler(0).CollectJournal(r.ctx, path, col.corpus, col.archs); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	perCell := float64(st.Size()) / float64(col.cells())
	r.layer("persist.wal_bytes_per_cell", perCell)
	replay := probe(math.MaxInt, func(int) {
		_, _ = persist.ReadWAL(path, profile.JournalKind, profile.JournalVersion)
	})
	r.layer("persist.wal_replay_mb_per_s", float64(st.Size())/1e6/(replay/1e9))

	t0 := time.Now()
	ds, _, err := col.profiler(0).MergeJournals([]string{path}, col.corpus, col.archs)
	if err != nil {
		return err
	}
	r.layer("profile.merge_journals_s", time.Since(t0).Seconds())
	col.verify(row, "MergeJournals", 0, ds)

	scratch := filepath.Join(r.dir, "append.wal")
	defer os.Remove(scratch)
	wal, _, err := persist.OpenWAL(scratch, "bench-wal-probe", 1, struct{}{})
	if err != nil {
		return err
	}
	defer wal.Close()
	cell := json.RawMessage(`"` + strings.Repeat("x", int(perCell)) + `"`)
	r.layer("persist.wal_append_us", probe(math.MaxInt, func(int) { _ = wal.Append(cell) })/1e3)
	r.layer("persist.wal_fsync_us", probe(math.MaxInt, func(int) { _ = wal.Append(json.RawMessage(`0`)) })/1e3)
	return nil
}

// campaignProbe runs the same collection as a campaign inside this
// process: a coordinator on a loopback listener and one worker per core,
// each measuring on one goroutine, then the merge. Its dataset must be
// the one every other path produced.
func campaignProbe(r *run, row *row, col *collection, journalPassS float64) error {
	dir := filepath.Join(r.dir, "campaign")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spec := campaign.Spec{
		Stencils: col.corpus, Archs: col.archs,
		SamplesPerOC: core.DefaultConfig().SamplesPerOC, Seed: col.seed,
	}
	t0 := time.Now()
	coord, err := campaign.NewCoordinator(spec, campaign.Options{Dir: dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: coord.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // a timeout only means a worker connection lingered
		<-served
	}()

	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = campaign.Work(r.ctx, "http://"+ln.Addr().String(), campaign.WorkerOptions{
				ID: fmt.Sprintf("bench-%d", w), Workers: 1, Poll: 5 * time.Millisecond,
			})
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	ds, _, err := coord.Merge()
	if err != nil {
		return err
	}
	took := time.Since(t0).Seconds()
	col.verify(row, "campaign merge", 0, ds)
	r.layer("campaign.cells_per_s", float64(col.cells())/took)
	r.layer("campaign.overhead_x", took/journalPassS)
	return nil
}
