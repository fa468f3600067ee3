// Command riotshare optimizes and runs the built-in benchmark programs
// from the command line.
//
// Usage:
//
//	riotshare analyze  -prog addmul          # dependences and sharing opportunities
//	riotshare optimize -prog twomm-a -mem 1000   # plan table under a memory cap (MB)
//	riotshare codegen  -prog addmul          # pseudo-code of the best plan
//	riotshare run      -prog linreg -plan 0  # execute a plan on synthetic data
package main

import (
	"flag"
	"fmt"
	"os"

	"riotshare"
	"riotshare/internal/bench"
	"riotshare/internal/core"
	"riotshare/internal/deps"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "riotshare:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("subcommand required: analyze, optimize, codegen, run")
	}
	sub := os.Args[1]
	fs := flag.NewFlagSet(sub, flag.ExitOnError)
	progName := fs.String("prog", "addmul", "program: addmul, twomm-a, twomm-b, linreg")
	memMB := fs.Int64("mem", 0, "memory cap in MB (0 = unlimited)")
	planIdx := fs.Int("plan", -1, "plan index for run (-1 = best)")
	full := fs.Bool("full", false, "full plan-space search (slow for linreg)")
	asJSON := fs.Bool("json", false, "emit the lowered plan as JSON (codegen subcommand)")
	workers := fs.Int("workers", 1, "parallel kernel workers for run (1 = in-order schedule)")
	prefetch := fs.Int("prefetch", 0, "I/O prefetch window in blocks (0 = 2x workers)")
	shards := fs.Int("shards", 1, "stripe the run's block store across N shard dirs (per-shard I/O is reported)")
	replicas := fs.Int("replicas", 1, "mirror each block on k shards (needs -shards >= k); write amplification and degraded reads are reported")
	if err := fs.Parse(os.Args[2:]); err != nil {
		return err
	}
	p, subsets, err := bench.PaperProgram(*progName, *full)
	if err != nil {
		return err
	}
	optimize := func() (*riotshare.Result, error) {
		opt := core.Options{BindParams: true, MemCapBytes: *memMB << 20}
		if subsets != nil {
			return riotshare.OptimizeSubsets(p, opt, subsets)
		}
		return riotshare.Optimize(p, opt)
	}

	switch sub {
	case "analyze":
		an, err := deps.Analyze(p, deps.Options{BindParams: true})
		if err != nil {
			return err
		}
		fmt.Printf("program %s: %d statements, %d dependences, %d sharing opportunities\n",
			p.Name, len(p.Stmts), len(an.Deps), len(an.Shares))
		fmt.Println("dependences:")
		for _, d := range an.Deps {
			fmt.Printf("  %s\n", d)
		}
		fmt.Println("sharing opportunities:")
		for _, s := range an.Shares {
			fmt.Printf("  %s\n", s)
		}
		return nil

	case "optimize":
		res, err := optimize()
		if err != nil {
			return err
		}
		fmt.Printf("program %s: %d plans in %v (%d FindSchedule calls)\n",
			p.Name, len(res.Plans), res.OptimizeTime, res.SearchStats.FindScheduleCalls)
		fmt.Printf("%-5s %-10s %-10s %s\n", "plan", "mem(MB)", "I/O(s)", "sharing set")
		for _, pl := range res.Plans {
			marker := " "
			if res.Best != nil && pl.Index == res.Best.Index {
				marker = "*"
			}
			fmt.Printf("%-4d%s %-10.0f %-10.0f %s\n", pl.Index, marker,
				float64(pl.Cost.PeakMemoryBytes)/(1<<20), pl.Cost.IOTimeSec, pl.Label)
		}
		return nil

	case "codegen":
		res, err := optimize()
		if err != nil {
			return err
		}
		if res.Best == nil {
			return fmt.Errorf("no plan fits the memory cap")
		}
		if *asJSON {
			return res.Best.Timeline.WriteJSON(os.Stdout)
		}
		fmt.Printf("best plan %s\nschedule:\n%s\npseudo-code:\n%s",
			res.Best.Label, res.Best.Plan.Schedule.StringFor(p), riotshare.Pseudocode(res.Best))
		return nil

	case "run":
		res, err := optimize()
		if err != nil {
			return err
		}
		pl := res.Best
		if *planIdx >= 0 {
			if *planIdx >= len(res.Plans) {
				return fmt.Errorf("plan %d out of range (%d plans)", *planIdx, len(res.Plans))
			}
			pl = &res.Plans[*planIdx]
		}
		if pl == nil {
			return fmt.Errorf("no plan fits the memory cap")
		}
		dir, err := os.MkdirTemp("", "riotshare-run-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		var store riotshare.StorageBackend
		var sharded *riotshare.ShardedStorage
		if *shards > 1 {
			sharded, err = riotshare.OpenShardedStorage(
				riotshare.ShardDirs(dir, *shards), riotshare.ShardedStorageOptions{Replicas: *replicas})
			store = sharded
		} else {
			if *replicas > 1 {
				return fmt.Errorf("-replicas %d needs -shards >= %d", *replicas, *replicas)
			}
			store, err = riotshare.NewStorage(dir, riotshare.FormatDAF)
		}
		if err != nil {
			return err
		}
		defer store.Close()
		if err := store.CreateAll(p); err != nil {
			return err
		}
		if _, err := bench.FillInputs(p, store, 1); err != nil {
			return err
		}
		preRun := store.Stats()
		model := riotshare.PaperDiskModel()
		r, err := riotshare.ExecuteOptions(pl, store, model, *memMB<<20,
			riotshare.ExecOptions{Workers: *workers, PrefetchDepth: *prefetch})
		if err != nil {
			return err
		}
		fmt.Printf("plan %d %s (workers=%d)\n", pl.Index, pl.Label, *workers)
		fmt.Printf("predicted I/O: %.0fs  measured (simulated) I/O: %.0fs\n", pl.Cost.IOTimeSec, r.SimulatedIOSec)
		fmt.Printf("read %.1fGB in %d requests, wrote %.1fGB in %d requests\n",
			float64(r.ReadBytes)/(1<<30), r.ReadReqs, float64(r.WriteBytes)/(1<<30), r.WriteReqs)
		fmt.Printf("peak memory %.0fMB, kernel CPU %v\n",
			float64(r.PeakMemoryBytes)/(1<<20), r.CPUTime)
		// Physical I/O the run actually issued to the block store
		// (scaled-down blocks, DESIGN.md S5; excludes the input fill) —
		// the ground truth buffer-pool hit rates are verified against.
		ps := store.Stats()
		fmt.Printf("physical I/O: %d read requests (%.1fMB), %d write requests (%.1fMB)\n",
			ps.ReadReqs-preRun.ReadReqs, float64(ps.ReadBytes-preRun.ReadBytes)/(1<<20),
			ps.WriteReqs-preRun.WriteReqs, float64(ps.WriteBytes-preRun.WriteBytes)/(1<<20))
		if sharded != nil {
			for i, ss := range sharded.ShardStats() {
				degraded := ""
				if ss.Degraded {
					degraded = " DEGRADED"
				}
				if ss.DegradedReads > 0 {
					degraded += fmt.Sprintf(", %d degraded reads", ss.DegradedReads)
				}
				fmt.Printf("  shard %d: %d read reqs (%.1fMB), %d write reqs (%.1fMB)%s\n",
					i, ss.ReadReqs, float64(ss.ReadBytes)/(1<<20),
					ss.WriteReqs, float64(ss.WriteBytes)/(1<<20), degraded)
			}
			if *replicas > 1 {
				fmt.Printf("  %d-way replication: %d degraded reads total\n", sharded.Replicas(), sharded.DegradedReads())
			}
		}
		if *workers > 1 {
			fmt.Printf("pipelined wall-clock estimate (I/O overlapped with compute): %.0fs\n",
				model.PipelinedTime(r.ReadBytes, r.WriteBytes, r.ReadReqs, r.WriteReqs, r.CPUTime.Seconds()))
		}
		return nil

	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}
