// Command riotshared is the multi-query analytics daemon: it serves the
// HTTP/JSON API of internal/server — concurrent program submissions
// optimized through a plan cache and executed over one shared,
// sharing-aware buffer pool — and doubles as its command-line client.
//
// Server:
//
//	riotshared serve -addr :8377 -data /var/lib/riotshare -pool-mb 256 -max-concurrent 4
//	riotshared serve -data /var/lib/riotshare -shards 4 -persist   # striped + restart-persistent
//	riotshared serve -shard-dirs /mnt/d0,/mnt/d1 -persist          # explicit devices
//	riotshared serve -data /var/lib/riotshare -shards 4 -replicas 2 -persist  # lost shard → degraded reads
//	riotshared serve -shard-addrs h0:8441,h1:8441,h2:8441,h3:8441 -replicas 2 -persist  # remote riotblockd shards
//	riotshared serve -mem-mb 512   # admission memory cap
//
// Client:
//
//	riotshared submit  -addr http://localhost:8377 -prog addmul -mem 1000 -tenant acme
//	riotshared submit  -addr http://localhost:8377 -spec program.json
//	riotshared status  -addr http://localhost:8377 -id q1
//	riotshared results -addr http://localhost:8377 -id q1 -wait
//	riotshared results -addr http://localhost:8377 -id q1 -stream
//	riotshared stats   -addr http://localhost:8377 -tenant acme
//	riotshared stats   -addr http://localhost:8377 -watch 2s   # live delta view
//	riotshared stats   -addr http://localhost:8377 -planner    # planner tiers + plan and shape caches
//	riotshared trace   -addr http://localhost:8377 q1          # span-tree breakdown
//	riotshared trace   -addr http://localhost:8377 q1:stream   # its latest result stream
//	riotshared repair  -addr http://localhost:8377 -shard 1
//
// A query's status, outputs and traces retire together once 64 later ones
// finished; its id then answers HTTP 410 (404: an id never issued).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight HTTP
// requests drain, running queries finish, the pool flushes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"riotshare/internal/blockproto"
	"riotshare/internal/server"
	"riotshare/internal/storage"
	"riotshare/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "riotshared:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("subcommand required: serve, submit, status, results, stats")
	}
	sub := os.Args[1]
	fs := flag.NewFlagSet(sub, flag.ExitOnError)
	switch sub {
	case "serve":
		return serve(fs, os.Args[2:])
	case "submit", "status", "results", "stats", "trace", "repair":
		return client(sub, fs, os.Args[2:])
	default:
		return fmt.Errorf("unknown subcommand %q (serve, submit, status, results, stats, trace, repair)", sub)
	}
}

func serve(fs *flag.FlagSet, args []string) error {
	var (
		addr    = fs.String("addr", ":8377", "listen address")
		dir     = fs.String("data", "", "directory for physical block files (default: temp)")
		poolMB  = fs.Int64("pool-mb", 256, "shared buffer pool capacity in MB (0 = unlimited)")
		maxConc = fs.Int("max-concurrent", 2, "max concurrently executing queries (K)")
		memMB   = fs.Int64("mem-mb", 0, "global cap on combined plan peak memory in MB (0 = unlimited)")
		workers = fs.Int("workers", 1, "kernel workers per query (1 = in-order schedule)")
		seed    = fs.Int64("seed", 1, "synthetic input data seed")

		planBudgetMs = fs.Int64("plan-budget-ms", 250, "wall-clock deadline of the plan search on a cache miss, analysis included: the best plan found by then is served, and a program whose analysis outlasts it runs its original schedule (0 = no deadline: the fill ends when the search completes or has tested its 100000-set call budget)")
		planCacheN   = fs.Int("plan-cache", 256, "plan cache and program-shape cache entry cap, LRU-evicted (-1 = unlimited)")

		shards     = fs.Int("shards", 1, "stripe the block store across N shard dirs under -data (devices)")
		shardDirs  = fs.String("shard-dirs", "", "explicit comma-separated shard directories (overrides -shards; order matters)")
		shardAddrs = fs.String("shard-addrs", "", "comma-separated host:port addresses of riotblockd servers, appended after -shard-dirs as remote shards (order matters)")
		replicas   = fs.Int("replicas", 1, "mirror each block on k shards (ring order); a lost shard then degrades reads instead of failing the open")
		persist    = fs.Bool("persist", false, "persist shared input arrays across restarts (manifest catalog; requires -data, -shard-dirs, or -shard-addrs)")

		slowMs  = fs.Int64("slow-query-ms", 0, "log a JSON span breakdown to stderr for queries slower than this (0 = off)")
		pprofOn = fs.Bool("pprof", false, "register net/http/pprof handlers under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dirs := splitList(*shardDirs)
	addrs := splitList(*shardAddrs)
	for _, a := range addrs {
		if !storage.IsRemoteSpec(a) {
			return fmt.Errorf("-shard-addrs: %q is not a host:port address", a)
		}
	}
	if *persist && *dir == "" && len(dirs) == 0 && len(addrs) == 0 {
		return fmt.Errorf("-persist needs a real data directory: set -data, -shard-dirs, or -shard-addrs")
	}
	if *dir == "" && len(dirs) == 0 && len(addrs) == 0 {
		d, err := os.MkdirTemp("", "riotshared-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		*dir = d
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Printf("riotshared: serving on %s (data %s, pool %dMB, K=%d)\n", *addr, *dir, *poolMB, *maxConc)
	err := server.ListenAndServe(ctx, *addr, server.Config{
		Dir:              *dir,
		Shards:           *shards,
		ShardDirs:        dirs,
		ShardAddrs:       addrs,
		Replicas:         *replicas,
		Persist:          *persist,
		PoolBytes:        *poolMB << 20,
		MaxConcurrent:    *maxConc,
		GlobalMemBytes:   *memMB << 20,
		Workers:          *workers,
		Seed:             *seed,
		PlanBudget:       time.Duration(*planBudgetMs) * time.Millisecond,
		PlanCacheEntries: *planCacheN,
		SlowQueryMs:      *slowMs,
		EnablePprof:      *pprofOn,
	})
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// splitList parses a comma-separated flag list, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func client(sub string, fs *flag.FlagSet, args []string) error {
	var (
		addr     = fs.String("addr", "http://localhost:8377", "server base URL")
		progName = fs.String("prog", "", "named program: addmul, twomm-a, twomm-b, linreg")
		specPath = fs.String("spec", "", "statement-builder JSON program file")
		memMB    = fs.Int64("mem", 0, "per-query memory cap in MB (0 = unlimited)")
		plan     = fs.Int("plan", -1, "force plan index (-1 = cheapest fitting plan)")
		tenant   = fs.String("tenant", "", "tenant label (submit: admission round-robin queue; stats: filter)")
		id       = fs.String("id", "", "query id (status, results, trace)")
		wait     = fs.Bool("wait", false, "block until the query finishes (results)")
		stream   = fs.Bool("stream", false, "stream the output blocks from /results/stream instead of fetching the JSON summary; delivery begins before the query finishes (results)")
		shard    = fs.Int("shard", -1, "shard index to re-mirror from its replicas (repair)")
		watch    = fs.Duration("watch", 0, "poll /stats at this interval and render counter deltas (stats)")
		planner  = fs.Bool("planner", false, "render per-tier planning percentiles and the plan and shape caches (stats)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" && fs.NArg() > 0 {
		*id = fs.Arg(0) // `riotshared trace q1` style positional id
	}
	switch sub {
	case "submit":
		req := server.Request{Program: *progName, Tenant: *tenant, MemCapMB: *memMB}
		if *specPath != "" {
			data, err := os.ReadFile(*specPath)
			if err != nil {
				return err
			}
			var spec server.ProgramSpec
			if err := json.Unmarshal(data, &spec); err != nil {
				return fmt.Errorf("parse %s: %w", *specPath, err)
			}
			req.Spec = &spec
		}
		if *plan >= 0 {
			req.Plan = plan
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		return do(http.MethodPost, *addr+"/submit", body)
	case "status":
		if *id == "" {
			return fmt.Errorf("-id required")
		}
		return do(http.MethodGet, *addr+"/status?id="+*id, nil)
	case "results":
		if *id == "" {
			return fmt.Errorf("-id required")
		}
		if *stream {
			return streamResults(*addr, *id)
		}
		url := *addr + "/results?id=" + *id
		if *wait {
			url += "&wait=1"
		}
		return do(http.MethodGet, url, nil)
	case "stats":
		if *watch > 0 {
			if *tenant != "" {
				return fmt.Errorf("-watch renders the full service view; drop -tenant")
			}
			return watchStats(*addr, *watch)
		}
		if *planner {
			return printPlannerStats(*addr)
		}
		u := *addr + "/stats"
		if *tenant != "" {
			u += "?tenant=" + url.QueryEscape(*tenant)
		}
		return do(http.MethodGet, u, nil)
	case "trace":
		if *id == "" {
			return fmt.Errorf("query id required: riotshared trace q1 (or -id q1)")
		}
		return printTrace(*addr, *id)
	case "repair":
		if *shard < 0 {
			return fmt.Errorf("-shard required")
		}
		return do(http.MethodPost, fmt.Sprintf("%s/repair?shard=%d", *addr, *shard), nil)
	}
	return nil
}

// streamResults consumes GET /results/stream, decoding
// the blockproto frames as they arrive and printing one summary line
// per output array. Each block's elements are summed row-major from 0
// and the block sums added in frame-arrival order (blocks row-major
// across the grid) — exactly the two-level fold of OutputInfo.Sum — so
// the printed sum is bit-identical to the "sum" field of a whole
// /results fetch (both are rendered through encoding/json).
func streamResults(addr, id string) error {
	resp, err := http.Get(addr + "/results/stream?id=" + url.QueryEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		os.Stdout.Write(out)
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	type arrayAgg struct {
		blocks int
		bytes  int64
		sum    float64
	}
	aggs := map[string]*arrayAgg{}
	var order []string
	for {
		_, kind, payload, err := blockproto.ReadFrame(resp.Body)
		if err != nil {
			return fmt.Errorf("read stream frame: %w", err)
		}
		d := blockproto.NewDec(payload)
		switch kind {
		case server.StreamFrameArray:
			name := d.Str()
			br, bc := d.U32(), d.U32()
			gr, gc := d.U32(), d.U32()
			if err := d.Err(); err != nil {
				return fmt.Errorf("array frame: %w", err)
			}
			aggs[name] = &arrayAgg{}
			order = append(order, name)
			fmt.Printf("array %s: %dx%d grid of %dx%d blocks\n", name, gr, gc, br, bc)
		case server.StreamFrameBlock:
			name := d.Str()
			d.I64() // block row
			d.I64() // block col
			blk := d.Block()
			if err := d.Err(); err != nil {
				return fmt.Errorf("block frame: %w", err)
			}
			a := aggs[name]
			if a == nil {
				return fmt.Errorf("block frame for unannounced array %q", name)
			}
			a.blocks++
			a.bytes += int64(len(blk.Data)) * 8
			blkSum := 0.0
			for _, v := range blk.Data {
				blkSum += v
			}
			a.sum += blkSum
		case server.StreamFrameEnd:
			arrays, blocks := d.U32(), d.U32()
			total := d.I64()
			if err := d.Err(); err != nil {
				return fmt.Errorf("end frame: %w", err)
			}
			for _, name := range order {
				a := aggs[name]
				sum, _ := json.Marshal(a.sum)
				fmt.Printf("array %s: %d blocks, %d bytes, sum %s\n", name, a.blocks, a.bytes, sum)
			}
			fmt.Printf("stream end: %d arrays, %d blocks, %d bytes\n", arrays, blocks, total)
			return nil
		case server.StreamFrameError:
			return fmt.Errorf("stream failed: %s", d.Str())
		default:
			return fmt.Errorf("unexpected stream frame kind 0x%02x", kind)
		}
	}
}

// watchStats polls /stats and renders one delta line per tick: running
// and queued gauges as-is, counters as per-interval deltas, rates and
// percentiles from the current snapshot. Exits on SIGINT/SIGTERM.
func watchStats(addr string, interval time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Printf("%-8s %4s %6s %5s %5s %7s %7s %7s %8s %7s %7s\n",
		"time", "run", "queued", "Δsub", "Δfin", "Δreads", "ΔrdMB", "ΔwrMB", "poolHit%", "plan%", "p95ms")
	var prev server.Stats
	have := false
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		st, err := fetchStats(addr + "/stats")
		if err != nil {
			return err
		}
		if have {
			degraded := ""
			if st.DegradedReads > prev.DegradedReads {
				degraded = fmt.Sprintf("  DEGRADED +%d", st.DegradedReads-prev.DegradedReads)
			}
			fmt.Printf("%-8s %4d %6d %5d %5d %7d %7.1f %7.1f %8.1f %7.1f %7.2f%s\n",
				time.Now().Format("15:04:05"),
				st.Running, st.Queued,
				st.Submitted-prev.Submitted, st.Finished-prev.Finished,
				st.Store.ReadReqs-prev.Store.ReadReqs,
				float64(st.Store.ReadBytes-prev.Store.ReadBytes)/(1<<20),
				float64(st.Store.WriteBytes-prev.Store.WriteBytes)/(1<<20),
				st.Pool.HitRate()*100, st.PlanCacheHitRate*100, st.PlanningP95Ms,
				degraded)
		}
		prev, have = st, true
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}

// printPlannerStats renders the tiered planner's view of one /stats
// snapshot: per-tier planning latency percentiles, the bounded plan cache
// and the program-shape cache behind it.
func printPlannerStats(addr string) error {
	st, err := fetchStats(addr + "/stats")
	if err != nil {
		return err
	}
	fmt.Printf("plan cache: %d entries, %d hits / %d misses (%.1f%% hit), %d evictions\n",
		st.PlanCacheSize, st.PlanCacheHits, st.PlanCacheMisses,
		st.PlanCacheHitRate*100, st.PlanCacheEvictions)
	fmt.Printf("program shapes: %d entries, %d hits / %d misses\n",
		st.PlanShapeEntries, st.PlanShapeHits, st.PlanShapeMisses)
	fmt.Printf("%-8s %8s %10s %10s %10s\n", "tier", "plans", "p50ms", "p95ms", "p99ms")
	tiers := make([]string, 0, len(st.PlanningTiers))
	for tier := range st.PlanningTiers {
		tiers = append(tiers, tier)
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		ts := st.PlanningTiers[tier]
		fmt.Printf("%-8s %8d %10.2f %10.2f %10.2f\n", tier, ts.Count, ts.P50Ms, ts.P95Ms, ts.P99Ms)
	}
	return nil
}

// fetchStats decodes one /stats snapshot.
func fetchStats(url string) (server.Stats, error) {
	var st server.Stats
	resp, err := http.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// printTrace fetches one query's completed span tree and renders it as
// an indented duration breakdown.
func printTrace(addr, id string) error {
	resp, err := http.Get(addr + "/trace?id=" + url.QueryEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("trace %s: %s", id, e.Error)
		}
		return fmt.Errorf("trace %s: HTTP %d", id, resp.StatusCode)
	}
	var tr telemetry.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return err
	}
	fmt.Printf("trace %s (%v)\n", tr.QueryID, tr.Root.Duration())
	var b strings.Builder
	tr.Root.Render(&b, 0)
	fmt.Print(b.String())
	return nil
}

// do performs one API call and prints the JSON response, asking the
// server for indented output since it goes to a human terminal.
func do(method, url string, body []byte) error {
	if strings.Contains(url, "?") {
		url += "&pretty=1"
	} else {
		url += "?pretty=1"
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	os.Stdout.Write(out)
	if resp.StatusCode >= 400 {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}
