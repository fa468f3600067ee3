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
//	riotshared serve -policy segmented -tenant-quota-mb acme=64,beta=32 \
//	    -tenant-weight acme=3 -tenant-concurrent acme=2 -tenant-mem-mb acme=512
//
// Client:
//
//	riotshared submit  -addr http://localhost:8377 -prog addmul -mem 1000 -tenant acme
//	riotshared submit  -addr http://localhost:8377 -spec program.json
//	riotshared status  -addr http://localhost:8377 -id q1
//	riotshared results -addr http://localhost:8377 -id q1 -wait
//	riotshared results -addr http://localhost:8377 -id q1 -stream -stream-chunk-blocks 8
//	riotshared stats   -addr http://localhost:8377 -tenant acme
//	riotshared stats   -addr http://localhost:8377 -watch 2s   # live delta view
//	riotshared stats   -addr http://localhost:8377 -planner    # planner tiers + improver
//	riotshared trace   -addr http://localhost:8377 q1          # span-tree breakdown
//	riotshared repair  -addr http://localhost:8377 -shard 1
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"riotshare/internal/blockproto"
	"riotshare/internal/govern"
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
		addr     = fs.String("addr", ":8377", "listen address")
		dir      = fs.String("data", "", "directory for physical block files (default: temp)")
		format   = fs.String("format", "daf", "block format: daf or lab-tree")
		poolMB   = fs.Int64("pool-mb", 256, "shared buffer pool capacity in MB (0 = unlimited)")
		policy   = fs.String("policy", "lru", "pool replacement policy: lru or segmented (scan-resistant)")
		maxConc  = fs.Int("max-concurrent", 2, "max concurrently executing queries (K)")
		memMB    = fs.Int64("mem-mb", 0, "global cap on combined plan peak memory in MB (0 = unlimited)")
		workers  = fs.Int("workers", 1, "default kernel workers per query (1 = in-order schedule)")
		prefetch = fs.Int("prefetch", 0, "default I/O prefetch window per query (0 = 2x workers)")
		seed     = fs.Int64("seed", 1, "synthetic input data seed")
		full     = fs.Bool("full", false, "full plan-space search for linreg (minutes)")

		planBudgetMs = fs.Int64("plan-budget-ms", 250, "wall-clock budget for the greedy fast-path planner on a cache miss (0 = full search every miss)")
		planImprover = fs.Bool("plan-improver", true, "re-plan greedy-planned cache entries with the full search in the background and hot-swap better plans")
		planCacheN   = fs.Int("plan-cache", 256, "plan cache entry cap, LRU-evicted (-1 = unlimited)")

		shards     = fs.Int("shards", 1, "stripe the block store across N shard dirs under -data (devices)")
		shardDirs  = fs.String("shard-dirs", "", "explicit comma-separated shard directories (overrides -shards; order matters)")
		shardAddrs = fs.String("shard-addrs", "", "comma-separated host:port addresses of riotblockd servers, appended after -shard-dirs as remote shards (order matters)")
		placement  = fs.String("placement", "", "block placement across shards: hash (default) or rows")
		replicas   = fs.Int("replicas", 1, "mirror each block on k shards (ring order); a lost shard then degrades reads instead of failing the open")
		persist    = fs.Bool("persist", false, "persist shared input arrays across restarts (manifest catalog; requires -data, -shard-dirs, or -shard-addrs)")

		quotaMB    = fs.String("tenant-quota-mb", "", "per-tenant pool quotas, e.g. acme=64,beta=32 (MB)")
		weights    = fs.String("tenant-weight", "", "per-tenant admission weights, e.g. acme=3,beta=1")
		tenantConc = fs.String("tenant-concurrent", "", "per-tenant concurrency caps, e.g. acme=2")
		tenantMem  = fs.String("tenant-mem-mb", "", "per-tenant plan peak memory caps, e.g. acme=512 (MB)")
		noAffinity = fs.Bool("no-affinity", false, "disable shared-input affinity batching in admission")

		slowMs   = fs.Int64("slow-query-ms", 0, "log a JSON span breakdown to stderr for queries slower than this (0 = off)")
		pprofOn  = fs.Bool("pprof", false, "register net/http/pprof handlers under /debug/pprof/")
		traceCap = fs.Int("trace-cap", 0, "completed query traces retained for GET /trace (0 = default 256)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	poolQuotas, err := parseTenantInts(*quotaMB, "tenant-quota-mb")
	if err != nil {
		return err
	}
	tenantQuotaBytes := make(map[string]int64, len(poolQuotas))
	for t, mb := range poolQuotas {
		tenantQuotaBytes[t] = mb << 20
	}
	tenants, err := parseTenantConfigs(*weights, *tenantConc, *tenantMem)
	if err != nil {
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
	f := storage.FormatDAF
	if *format == "lab-tree" {
		f = storage.FormatLABTree
	} else if *format != "daf" {
		return fmt.Errorf("unknown format %q (daf, lab-tree)", *format)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Printf("riotshared: serving on %s (data %s, pool %dMB, K=%d)\n", *addr, *dir, *poolMB, *maxConc)
	err = server.ListenAndServe(ctx, *addr, server.Config{
		Dir:                  *dir,
		Format:               f,
		Shards:               *shards,
		ShardDirs:            dirs,
		ShardAddrs:           addrs,
		Placement:            *placement,
		Replicas:             *replicas,
		Persist:              *persist,
		PoolBytes:            *poolMB << 20,
		PoolPolicy:           *policy,
		TenantPoolQuotaBytes: tenantQuotaBytes,
		MaxConcurrent:        *maxConc,
		GlobalMemBytes:       *memMB << 20,
		Tenants:              tenants,
		NoAffinity:           *noAffinity,
		Workers:              *workers,
		PrefetchDepth:        *prefetch,
		Seed:                 *seed,
		FullSearch:           *full,
		PlanBudget:           time.Duration(*planBudgetMs) * time.Millisecond,
		PlanImprover:         *planImprover,
		PlanCacheEntries:     *planCacheN,
		SlowQueryMs:          *slowMs,
		EnablePprof:          *pprofOn,
		TraceCapacity:        *traceCap,
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

// parseTenantInts parses "name=value,name=value" flag lists.
func parseTenantInts(s, flagName string) (map[string]int64, error) {
	out := map[string]int64{}
	if s == "" {
		return out, nil
	}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-%s: %q is not name=value", flagName, kv)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-%s: %q is not a non-negative integer", flagName, val)
		}
		out[name] = n
	}
	return out, nil
}

// parseTenantConfigs assembles govern.TenantConfig values from the three
// per-tenant flag lists.
func parseTenantConfigs(weights, conc, memMB string) (map[string]govern.TenantConfig, error) {
	ws, err := parseTenantInts(weights, "tenant-weight")
	if err != nil {
		return nil, err
	}
	cs, err := parseTenantInts(conc, "tenant-concurrent")
	if err != nil {
		return nil, err
	}
	ms, err := parseTenantInts(memMB, "tenant-mem-mb")
	if err != nil {
		return nil, err
	}
	if len(ws) == 0 && len(cs) == 0 && len(ms) == 0 {
		return nil, nil
	}
	out := map[string]govern.TenantConfig{}
	for name, w := range ws {
		tc := out[name]
		tc.Weight = int(w)
		out[name] = tc
	}
	for name, c := range cs {
		tc := out[name]
		tc.MaxConcurrent = int(c)
		out[name] = tc
	}
	for name, m := range ms {
		tc := out[name]
		tc.MemBytes = m << 20
		out[name] = tc
	}
	return out, nil
}

func client(sub string, fs *flag.FlagSet, args []string) error {
	var (
		addr     = fs.String("addr", "http://localhost:8377", "server base URL")
		progName = fs.String("prog", "", "named program: addmul, twomm-a, twomm-b, linreg")
		specPath = fs.String("spec", "", "statement-builder JSON program file")
		memMB    = fs.Int64("mem", 0, "per-query memory cap in MB (0 = unlimited)")
		plan     = fs.Int("plan", -1, "force plan index (-1 = cheapest fitting plan)")
		workers  = fs.Int("workers", 0, "kernel workers for this query (0 = server default)")
		tenant   = fs.String("tenant", "", "tenant label (submit: governor fairness + pool quotas; stats: filter)")
		id       = fs.String("id", "", "query id (status, results, trace)")
		wait     = fs.Bool("wait", false, "block until the query finishes (results)")
		stream   = fs.Bool("stream", false, "stream the output blocks from /results/stream instead of fetching the JSON summary; delivery begins before the query finishes (results)")
		chunkBlk = fs.Int("stream-chunk-blocks", 0, "output blocks per streamed chunk, 0 = server default (results -stream)")
		shard    = fs.Int("shard", -1, "shard index to re-mirror from its replicas (repair)")
		watch    = fs.Duration("watch", 0, "poll /stats at this interval and render counter deltas (stats)")
		planner  = fs.Bool("planner", false, "render per-tier planning percentiles and improver activity (stats)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" && fs.NArg() > 0 {
		*id = fs.Arg(0) // `riotshared trace q1` style positional id
	}
	switch sub {
	case "submit":
		req := server.Request{Program: *progName, Tenant: *tenant, MemCapMB: *memMB, Workers: *workers}
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
			return streamResults(*addr, *id, *chunkBlk)
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

// streamResults consumes GET /results/stream in binary mode, decoding
// the blockproto frames as they arrive and printing one summary line
// per output array. Sums accumulate in frame-arrival order — blocks
// row-major across the grid, elements row-major within each block —
// which is exactly the order the server sums for OutputInfo.Sum, so
// the printed sum is bit-identical to the "sum" field of a whole
// /results fetch (both are rendered through encoding/json).
func streamResults(addr, id string, chunkBlocks int) error {
	u := addr + "/results/stream?id=" + url.QueryEscape(id)
	if chunkBlocks > 0 {
		u += "&chunk=" + strconv.Itoa(chunkBlocks)
	}
	resp, err := http.Get(u)
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
			rows, cols := int(d.U32()), int(d.U32())
			blob := d.Blob()
			if err := d.Err(); err != nil {
				return fmt.Errorf("block frame: %w", err)
			}
			blk, err := blockproto.DecodeBlock(rows, cols, blob)
			if err != nil {
				return err
			}
			a := aggs[name]
			if a == nil {
				return fmt.Errorf("block frame for unannounced array %q", name)
			}
			a.blocks++
			a.bytes += int64(len(blob))
			for _, v := range blk.Data {
				a.sum += v
			}
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
// percentiles from the current snapshot. Δswaps counts plan tables the
// background improver hot-swapped during the interval. Exits on
// SIGINT/SIGTERM.
func watchStats(addr string, interval time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Printf("%-8s %4s %6s %5s %5s %7s %7s %7s %8s %7s %6s %7s\n",
		"time", "run", "queued", "Δsub", "Δfin", "Δreads", "ΔrdMB", "ΔwrMB", "poolHit%", "plan%", "Δswaps", "p95ms")
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
			var dSwaps int64
			if st.Improver != nil {
				dSwaps = st.Improver.Swaps
				if prev.Improver != nil {
					dSwaps -= prev.Improver.Swaps
				}
			}
			fmt.Printf("%-8s %4d %6d %5d %5d %7d %7.1f %7.1f %8.1f %7.1f %6d %7.2f%s\n",
				time.Now().Format("15:04:05"),
				st.Running, st.Queued,
				st.Submitted-prev.Submitted, st.Finished-prev.Finished,
				st.Store.ReadReqs-prev.Store.ReadReqs,
				float64(st.Store.ReadBytes-prev.Store.ReadBytes)/(1<<20),
				float64(st.Store.WriteBytes-prev.Store.WriteBytes)/(1<<20),
				st.Pool.HitRate()*100, st.PlanCacheHitRate*100, dSwaps, st.PlanningP95Ms,
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
// snapshot: per-tier planning latency percentiles, the bounded plan
// cache, and background improver activity.
func printPlannerStats(addr string) error {
	st, err := fetchStats(addr + "/stats")
	if err != nil {
		return err
	}
	fmt.Printf("plan cache: %d entries, %d hits / %d misses (%.1f%% hit), %d evictions\n",
		st.PlanCacheSize, st.PlanCacheHits, st.PlanCacheMisses,
		st.PlanCacheHitRate*100, st.PlanCacheEvictions)
	fmt.Printf("%-8s %8s %10s %10s %10s\n", "tier", "plans", "p50ms", "p95ms", "p99ms")
	for _, tier := range []string{"cache", "greedy", "full"} {
		ts, ok := st.PlanningTiers[tier]
		if !ok {
			continue
		}
		fmt.Printf("%-8s %8d %10.2f %10.2f %10.2f\n", tier, ts.Count, ts.P50Ms, ts.P95Ms, ts.P99Ms)
	}
	if st.Improver == nil {
		fmt.Println("improver: off")
		return nil
	}
	fmt.Printf("improver: %d runs, %d plans swapped, %d queued, %d dropped, %.0fms background search\n",
		st.Improver.Runs, st.Improver.Swaps, st.Improver.QueueDepth,
		st.Improver.Dropped, st.Improver.SearchMs)
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
