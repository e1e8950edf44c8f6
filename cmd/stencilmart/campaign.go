package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stencilmart/internal/campaign"
	"stencilmart/internal/fault"
	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
)

// cmdCampaign dispatches the distributed-collection subcommands: a
// coordinator that leases shards of one collection's cell space, and
// workers that measure leased shards into WAL files the coordinator
// merges. The merged dataset is bitwise-identical to what a serial
// `stencilmart profile` of the same preset and seed writes.
func cmdCampaign(args []string) error {
	if len(args) < 1 {
		campaignUsage()
		return fmt.Errorf("campaign: missing subcommand")
	}
	switch args[0] {
	case "coordinate":
		return cmdCampaignCoordinate(args[1:])
	case "work":
		return cmdCampaignWork(args[1:])
	case "help", "-h", "--help":
		campaignUsage()
		return nil
	}
	campaignUsage()
	return fmt.Errorf("campaign: unknown subcommand %q", args[0])
}

func campaignUsage() {
	fmt.Fprintln(os.Stderr, `stencilmart campaign - distributed corpus profiling

subcommands:
  coordinate  partition the collection into shards, lease them to
              workers over HTTP, and merge the shard journals into the
              dataset once every cell is durable
  work        join a campaign: measure leased shards into WAL files on
              the shared filesystem until the coordinator reports done

the coordinator and its workers must share a filesystem: the protocol
carries control only, measurement data travels through shard journals.
a killed campaign resumes: rerun coordinate over the same -dir.

run 'stencilmart campaign <subcommand> -h' for flags`)
}

func cmdCampaignCoordinate(args []string) error {
	fs := flag.NewFlagSet("campaign coordinate", flag.ExitOnError)
	out := fs.String("out", "dataset.bin", "output dataset path")
	dir := fs.String("dir", "", "campaign directory for shard journals (default <out>.campaign)")
	preset := fs.String("preset", "default", "pipeline preset (default, paper, smoke)")
	seed := fs.Int64("seed", 0, "override pipeline seed")
	shards := fs.Int("shards", 0, "shard count (default one shard per four uncovered cells)")
	listen := fs.String("listen", "127.0.0.1:0", "coordinator listen address")
	lease := fs.Duration("lease", campaign.DefaultLease, "heartbeat deadline before a shard is re-dispatched")
	chaos := fs.Bool("chaos", false, "have every worker inject deterministic measurement faults; the merged dataset must still match the fault-free serial run")
	chaosSeed := fs.Int64("chaos-seed", 99, "fault-injection seed")
	token := fs.String("token", "", "campaign auth token; workers must present it on /lease, /heartbeat, and /complete (empty = open)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := configFromPreset(*preset, *seed)
	if err != nil {
		return err
	}
	corpus, err := gen.MixedCorpus(cfg.Corpus2D, cfg.Corpus3D, cfg.MaxOrder, cfg.Seed)
	if err != nil {
		return err
	}
	// The spec mirrors what `stencilmart profile` measures serially: the
	// same corpus, catalog, samples, and profiler seed (cfg.Seed+1000) —
	// that identity is what makes the merged bytes comparable.
	spec := campaign.Spec{
		Stencils:     corpus,
		Archs:        gpu.Catalog(),
		SamplesPerOC: cfg.SamplesPerOC,
		Seed:         cfg.Seed + 1000,
	}
	if *chaos {
		cc := fault.DefaultConfig(*chaosSeed)
		spec.Chaos = &cc
		spec.Trials = 3
	}

	campDir := *dir
	if campDir == "" {
		campDir = *out + ".campaign"
	}
	if err := os.MkdirAll(campDir, 0o755); err != nil {
		return err
	}
	c, err := campaign.NewCoordinator(spec, campaign.Options{
		Shards: *shards,
		Lease:  *lease,
		Dir:    campDir,
		Token:  *token,
		// Publish the bound address so scripts (and humans) can point
		// workers at a :0 coordinator.
		OnListen: func(addr string) {
			path := filepath.Join(campDir, "coordinator.addr")
			if err := os.WriteFile(path, []byte("http://"+addr+"\n"), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "stencilmart: writing %s: %v\n", path, err)
			}
		},
	})
	if err != nil {
		return err
	}
	if st := c.Stats(); st.Covered > 0 {
		fmt.Printf("resuming campaign: %d/%d cells already durable in %s\n", st.Covered, st.Cells, campDir)
	}

	ctx, stop := signalContext()
	defer stop()
	logf := func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	ds, ms, err := c.Serve(ctx, *listen, logf)
	if err != nil {
		return err
	}
	fmt.Printf("merged %d shard journals: %d cells, %d duplicate records deduped\n", ms.Shards, ms.Cells, ms.Duplicates)
	st := c.Stats()
	for name, w := range st.Workers {
		fmt.Printf("  worker %-12s %d leases, %d completes, %d cells, %d faults absorbed\n",
			name, w.Leases, w.Completes, w.CellsDone, w.Faults)
	}
	if st.Redispatches > 0 {
		fmt.Printf("  re-dispatched %d expired leases\n", st.Redispatches)
	}

	if err := ds.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d stencils, %d instances\n", *out, len(ds.Stencils), len(ds.Instances))
	return nil
}

func cmdCampaignWork(args []string) error {
	fs := flag.NewFlagSet("campaign work", flag.ExitOnError)
	join := fs.String("join", "", "coordinator URL (e.g. http://127.0.0.1:8090, or the contents of <dir>/coordinator.addr)")
	id := fs.String("id", "", "worker id, unique in the campaign (default host:pid)")
	workers := fs.Int("workers", 0, "measurement goroutines per shard (0 = GOMAXPROCS)")
	poll := fs.Duration("poll", campaign.DefaultPoll, "wait between lease attempts when every shard is taken")
	stall := fs.Int("stall-after", 0, "straggler drill: hang without heartbeating after this many durable cells, until killed (0 = never)")
	token := fs.String("token", "", "campaign auth token matching the coordinator's -token")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *join == "" {
		return fmt.Errorf("campaign work: -join is required")
	}
	name := *id
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signalContext()
	defer stop()
	logf := func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	start := time.Now()
	st, err := campaign.Work(ctx, *join, campaign.WorkerOptions{
		ID: name, Workers: *workers, Poll: *poll, Logf: logf, StallAfterCells: *stall, Token: *token,
	})
	if err != nil {
		return err
	}
	fmt.Printf("worker %s: %d shards, %d cells measured, %d resumed, %d leases abandoned, %d faults absorbed in %s\n",
		name, st.Shards, st.Measured, st.Resumed, st.Abandoned, st.Faults, time.Since(start).Round(time.Millisecond))
	return nil
}
