// Package server is the multi-query analytics service: a session and
// admission layer that accepts program submissions (named benchmark
// programs or statement-builder JSON specs), optimizes them through a plan
// cache, admits executions through a tenant-aware resource governor
// (weighted round-robin across tenants under global and per-tenant
// concurrency/memory quotas; see internal/govern), and runs them over one
// shared, sharing-aware buffer pool — so a block read by one query is a
// cache hit for the next. It turns the single-shot optimizer into a
// long-running service, extending the paper's intra-program I/O sharing
// across concurrent queries and tenants.
//
// Input arrays (arrays a program never writes) are shared across queries by
// name: the first query to reference one creates and fills it, later
// queries — and concurrent ones — read the very same blocks through the
// pool. Written arrays are namespaced per query ("q3.E"), so concurrent
// executions of the same program cannot collide, while their ExecResults
// stay identical to standalone runs. The governor prefers
// admitting queries whose shared inputs are already pool-resident
// (affinity batching), so those hits compound.
package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/bench"
	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/govern"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
	"riotshare/internal/telemetry"
)

// Config sizes the service.
type Config struct {
	// Dir hosts the physical block files (required unless ShardDirs or
	// ShardAddrs is set): they live under Dir/shard-0 … shard-N-1, so a
	// server given only Dir is a one-shard store under Dir/shard-0.
	Dir string
	// Format selects the on-disk block format (default DAF).
	Format storage.Format
	// Shards stripes the block store across N shard directories under
	// Dir — stand-ins for devices — with deterministic block placement
	// (<= 1 = one shard). Results are bit-identical across shard counts.
	Shards int
	// ShardDirs names the shard directories explicitly (separate devices
	// or mounts); it overrides Shards/Dir-derived layout. Order matters
	// and is validated against the persisted manifests.
	ShardDirs []string
	// ShardAddrs names remote shards — host:port addresses of riotblockd
	// servers — appended after ShardDirs, so local directories and remote
	// servers mix freely in one store. Order matters like ShardDirs.
	// Placement, replication, manifests, and results are identical to an
	// all-local layout; a server that stops answering degrades its shard
	// (replication permitting) instead of failing queries.
	ShardAddrs []string
	// Remote tunes the client for each remote shard (pool size, timeouts,
	// retry policy); zero value = defaults.
	Remote storage.RemoteOptions
	// Placement selects the block→shard mapping ("" or "hash", "rows").
	Placement string
	// Replicas mirrors each block on k shards (primary plus the next k-1
	// in ring order; 0/1 = unreplicated). With k >= 2 a lost shard
	// directory degrades reads to the surviving replicas instead of
	// failing the reopen, and RepairShard re-mirrors it in place.
	Replicas int
	// Persist keeps shared input arrays across server restarts: array
	// metadata and fill fingerprints are cataloged in a per-shard-root
	// manifest, and a server reopening the same directories skips
	// refilling any input whose fingerprint matches.
	Persist bool
	// PoolBytes is the shared buffer pool's soft capacity (0 = unlimited).
	PoolBytes int64
	// PoolPolicy selects the pool's replacement policy: "" or "lru" for
	// classic LRU, "segmented" for the scan-resistant segmented LRU under
	// which one tenant's huge scan cannot flush other tenants' hot sets.
	PoolPolicy string
	// TenantPoolQuotaBytes optionally bounds the pool bytes each tenant's
	// installed frames may occupy (quota partitioning inside the one
	// shared pool; absent tenants are bounded only by PoolBytes).
	TenantPoolQuotaBytes map[string]int64
	// MaxConcurrent is K, the number of concurrently executing queries
	// (default 2).
	MaxConcurrent int
	// GlobalMemBytes caps the combined peak (logical) memory of admitted
	// plans (0 = unlimited). A query whose plan alone exceeds it fails at
	// admission rather than starving the queue.
	GlobalMemBytes int64
	// Tenants sets per-tenant admission weights and concurrency/memory
	// quotas for the governor; absent tenants get weight 1 and only the
	// global bounds.
	Tenants map[string]govern.TenantConfig
	// NoAffinity disables shared-input affinity batching (by default the
	// governor prefers, within a tenant, the admissible query whose input
	// arrays are already pool-resident).
	NoAffinity bool
	// Workers/PrefetchDepth default each query's execution schedule
	// (Workers <= 1 = in-order, more = the pipelined DAG schedule); a
	// Request may override them.
	Workers       int
	PrefetchDepth int
	// Seed drives the deterministic synthetic fill of shared input arrays.
	Seed int64
	// RetainOutputs bounds how many finished queries keep their output
	// arrays on disk for later retrieval (each open output store holds a
	// file descriptor, so an unbounded server would exhaust the process
	// limit). Oldest outputs are dropped first; their result summaries
	// remain. 0 = default (64), < 0 = unlimited.
	RetainOutputs int
	// FullSearch enables the full linreg plan-space search (minutes);
	// default uses the paper's selected plans.
	FullSearch bool
	// PlanBudget, when > 0, enables the tiered planner's greedy fast path
	// (tier 2): a cache-miss query is planned by the budgeted greedy
	// search under this wall-clock budget instead of the full Apriori
	// enumeration. 0 keeps the classic full search on every miss.
	// Programs with a restricted plan list (linreg without FullSearch)
	// always use their selected plans. See docs/planner.md.
	PlanBudget time.Duration
	// PlanImprover starts the background plan improver (tier 3):
	// greedy-planned cache entries are re-planned with the full search
	// off the query path and hot-swapped when strictly better, so
	// recurring query shapes converge toward full-search plan quality.
	PlanImprover bool
	// PlanCacheEntries bounds the plan cache; the least recently used
	// entry is evicted past the cap (0 = default 256, < 0 = unlimited).
	PlanCacheEntries int
	// Programs registers extra named programs next to the built-in
	// benchmark set (addmul, twomm-a, twomm-b, linreg).
	Programs map[string]func() *prog.Program
	// SlowQueryMs, when > 0, logs a structured span breakdown (one JSON
	// line) for every query whose wall time meets the threshold.
	SlowQueryMs int64
	// SlowQueryLog receives slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
	// EnablePprof registers net/http/pprof profiling handlers under
	// /debug/pprof/ on the HTTP API.
	EnablePprof bool
	// TraceCapacity bounds the ring of completed query traces served by
	// GET /trace (0 = default 256).
	TraceCapacity int
}

// Request is one program submission.
type Request struct {
	// Program names a registered program, or Spec carries a
	// statement-builder JSON program; exactly one must be set.
	Program string       `json:"program,omitempty"`
	Spec    *ProgramSpec `json:"spec,omitempty"`
	// Tenant labels the submission for the resource governor and the
	// pool's quota accounting ("" = the anonymous tenant).
	Tenant string `json:"tenant,omitempty"`
	// MemCapMB bounds the chosen plan's peak (logical) memory and is
	// enforced during execution (0 = unlimited: the cheapest plan wins).
	MemCapMB int64 `json:"memCapMB,omitempty"`
	// Plan forces a plan index from the optimizer's table (nil = cheapest
	// plan fitting MemCapMB).
	Plan *int `json:"plan,omitempty"`
	// Workers/Prefetch override the server's execution defaults when > 0.
	Workers  int `json:"workers,omitempty"`
	Prefetch int `json:"prefetch,omitempty"`
}

// State is a query's lifecycle phase.
type State string

// Query lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// OutputInfo summarizes one persistent output array of a finished query.
type OutputInfo struct {
	// Array is the program's name for the output; Physical is the
	// namespaced on-disk array ("q3.E") it was written to.
	Array    string  `json:"array"`
	Physical string  `json:"physical"`
	Rows     int     `json:"rows"`
	Cols     int     `json:"cols"`
	Sum      float64 `json:"sum"` // element sum, a cheap cross-check
}

// QueryStatus is a point-in-time snapshot of one query.
type QueryStatus struct {
	ID        string       `json:"id"`
	Program   string       `json:"program"`
	Tenant    string       `json:"tenant,omitempty"`
	State     State        `json:"state"`
	PlanIndex int          `json:"planIndex"`
	PlanLabel string       `json:"planLabel"`
	Submitted time.Time    `json:"submitted"`
	Started   time.Time    `json:"started,omitempty"`
	Finished  time.Time    `json:"finished,omitempty"`
	Result    *exec.Result `json:"result,omitempty"`
	Outputs   []OutputInfo `json:"outputs,omitempty"`
	Err       string       `json:"error,omitempty"`
}

// query is the server-side record.
type query struct {
	id      string
	req     Request
	prog    *prog.Program
	subsets [][]string // restricted plan search, when the program wants one

	// alias maps the program's written arrays to their namespaced
	// physical stores; outputsDropped marks that those stores were
	// retired (failure cleanup or the RetainOutputs policy).
	alias          map[string]string
	outputsDropped bool

	// stream tracks per-output-block completion so /results/stream can
	// deliver finished blocks while later pipeline stages still run.
	stream *streamState

	status QueryStatus
	done   chan struct{}
}

// TenantStats is one tenant's slice of the service counters: governor
// occupancy (queue depth, running, admitted memory footprint), submission
// lifecycle counts, admission queue wait, and its share of the buffer pool
// (hit rate, resident bytes, quota).
type TenantStats struct {
	Running        int     `json:"running"`
	Queued         int     `json:"queued"`
	MemBytes       int64   `json:"memBytes,omitempty"`
	Submitted      int64   `json:"submitted"`
	Finished       int64   `json:"finished"`
	AvgQueueWaitMs float64 `json:"avgQueueWaitMs"`
	// Queue-wait percentiles (admission request to grant), computed by the
	// governor over its recent-grants window — the server-side view the
	// fairness acceptance criteria are asserted against.
	QueueWaitP50Ms float64 `json:"queueWaitP50Ms"`
	QueueWaitP95Ms float64 `json:"queueWaitP95Ms"`
	QueueWaitP99Ms float64 `json:"queueWaitP99Ms"`
	PoolHits       int64   `json:"poolHits"`
	PoolMisses     int64   `json:"poolMisses"`
	PoolHitRate    float64 `json:"poolHitRate"`
	BytesCached    int64   `json:"bytesCached"`
	PoolQuotaBytes int64   `json:"poolQuotaBytes,omitempty"`
}

// Stats reports service-wide counters: the shared pool, physical storage
// I/O (aggregate and per shard), admission, the plan cache, shared-input
// persistence, and the per-tenant breakdown.
type Stats struct {
	Pool  buffer.Stats  `json:"pool"`
	Store storage.Stats `json:"store"`
	// Shards breaks physical I/O down per shard (a server given only Dir
	// has one) — the per-device utilization view, including each shard's
	// degraded state and fallback-read count.
	Shards []storage.ShardStats `json:"shards,omitempty"`
	// Replicas is the store's replication factor (1 = unreplicated);
	// DegradedReads totals the reads served from a replica because their
	// primary shard is degraded — nonzero means the store is running
	// degraded and RepairShard should be run.
	Replicas      int   `json:"replicas,omitempty"`
	DegradedReads int64 `json:"degradedReads,omitempty"`

	Running   int   `json:"running"`
	Queued    int   `json:"queued"`
	Submitted int64 `json:"submitted"`
	Finished  int64 `json:"finished"`

	// InputFills counts shared inputs synthesized and written by this
	// process; InputFillsSkipped counts inputs served from the persisted
	// catalog with zero refill writes (fingerprint match on reopen).
	InputFills        int64 `json:"inputFills"`
	InputFillsSkipped int64 `json:"inputFillsSkipped"`

	PlanCacheHits   int64 `json:"planCacheHits"`
	PlanCacheMisses int64 `json:"planCacheMisses"`
	// PlanCacheHitRate is hits / (hits + misses), 0 while idle.
	PlanCacheHitRate float64 `json:"planCacheHitRate"`
	// PlanCacheSize is the number of resident plan tables;
	// PlanCacheEvictions counts entries retired by the LRU bound.
	PlanCacheSize      int   `json:"planCacheSize"`
	PlanCacheEvictions int64 `json:"planCacheEvictions,omitempty"`
	// Planning latency percentiles in milliseconds over every plans()
	// call (cache hits and misses alike), from the telemetry histogram.
	PlanningP50Ms float64 `json:"planningP50Ms"`
	PlanningP95Ms float64 `json:"planningP95Ms"`
	PlanningP99Ms float64 `json:"planningP99Ms"`
	// PlanningTiers breaks planning latency down per tier ("cache",
	// "greedy", "full"); only tiers that served at least one query
	// appear.
	PlanningTiers map[string]PlanningTierStats `json:"planningTiers,omitempty"`
	// Improver reports background plan-improver activity; nil unless
	// Config.PlanImprover is set.
	Improver *ImproverStats `json:"improver,omitempty"`

	// Streams reports the streamed result delivery path (/results/stream):
	// active streams, finished ones by outcome, and delivered totals.
	Streams StreamStats `json:"streams"`

	// Tenants breaks the service down per tenant label (the anonymous
	// tenant is ""). Nil until a query was submitted.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// PlanningTierStats is one planner tier's latency distribution.
type PlanningTierStats struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
}

// ImproverStats reports the background plan improver: full searches run,
// cached tables hot-swapped with a strictly better one, jobs dropped on a
// full queue, jobs waiting, and cumulative background search time.
type ImproverStats struct {
	Runs       int64   `json:"runs"`
	Swaps      int64   `json:"swaps"`
	Dropped    int64   `json:"dropped,omitempty"`
	QueueDepth int     `json:"queueDepth"`
	SearchMs   float64 `json:"searchMs"`
}

// Planner tier labels for riotshare_planning_seconds{tier=...} and
// Stats.PlanningTiers.
const (
	tierCache  = "cache"
	tierGreedy = "greedy"
	tierFull   = "full"
)

var planTiers = []string{tierCache, tierGreedy, tierFull}

// Server is the multi-query analytics service.
type Server struct {
	cfg   Config
	store *storage.ShardedManager
	pool  *buffer.Pool

	inputFills, inputFillsSkipped atomic.Int64

	mu        sync.Mutex
	queries   map[string]*query
	order     []string
	retained  []*query // finished queries with outputs still on disk
	nextID    int
	closed    bool
	submitted int64
	finished  int64
	wg        sync.WaitGroup

	// Plan cache: bounded LRU over planEntry. planLRU's front is the most
	// recently used entry; eviction walks from the back, skipping entries
	// whose planning is still in flight.
	planMu        sync.Mutex
	planCache     map[string]*planEntry
	planLRU       *list.List
	planHits      int64
	planMisses    int64
	planEvictions int64

	// Plan improver (tier 3): greedy-planned cache keys are enqueued on
	// impCh; the loop re-plans them with the full search and hot-swaps
	// strictly better tables under planMu. Nil/zero when disabled.
	impCh                         chan improveJob
	impCancel                     context.CancelFunc
	impWG                         sync.WaitGroup
	impRuns, impSwaps, impDropped atomic.Int64

	gov *govern.Governor

	tenantMu sync.Mutex
	tenants  map[string]*tenantCounters

	inputMu sync.Mutex
	inputs  map[string]*inputState

	// reg and tracer are the service's telemetry: a metrics registry
	// scraped by GET /metrics and a bounded ring of completed query
	// span trees served by GET /trace. Both are always live; the
	// handles below are registered once at startup and the labeled
	// families are memoizing vecs, so the steady-state query path
	// takes the registry lock only the first time a program, tenant,
	// or stage label is seen.
	reg                              *telemetry.Registry
	tracer                           *telemetry.Tracer
	mPlanning                        *telemetry.Histogram
	mPlanningTier                    *telemetry.HistogramVec // by planner tier
	mImprove                         *telemetry.Histogram    // nil unless the improver runs
	mSlowTotal                       *telemetry.Counter
	mQuery                           *telemetry.HistogramVec // by program
	mAdmitWait                       *telemetry.HistogramVec // by tenant
	mExecStage                       *telemetry.HistogramVec // by stage
	mPrefetchIssued, mPrefetchInline *telemetry.Counter
	slowMu                           sync.Mutex
	slowLog                          io.Writer

	// Streamed result delivery (stream.go): the riotshare_stream_* metric
	// families, which Stats.Streams also reads.
	mStreamBlocks  *telemetry.Counter
	mStreamBytes   *telemetry.Counter
	mStreamActive  *telemetry.Gauge
	mStreamSeconds *telemetry.Histogram
	mStreamOutcome map[string]*telemetry.Counter // by outcome label
}

// tenantCounters aggregates one tenant's submission lifecycle on the
// server side (the governor and pool keep their own per-tenant views).
type tenantCounters struct {
	submitted, finished int64
	admissions          int64
	waitTotal           time.Duration
}

type planEntry struct {
	ready chan struct{}
	// res and err are written once before ready closes, but res may be
	// hot-swapped by the improver afterwards — read them under planMu.
	res *core.Result
	err error
	// key/elem tie the entry into the LRU list; tier records which
	// planner produced res; improved marks that the improver already
	// re-planned this entry (successfully or not).
	key      string
	elem     *list.Element
	tier     string
	improved bool
}

// improveJob asks the improver to re-plan one cached entry.
type improveJob struct {
	key  string
	prog *prog.Program
}

type inputState struct {
	ready chan struct{}
	arr   *prog.Array
	err   error
}

// New creates a service with its shared storage backend and buffer pool.
// The backend is a sharded store — striped over local directories, remote
// riotblockd servers, or a mix; one shard under Dir/shard-0 when only Dir
// is given. With Persist it reopens an existing store, restoring the
// shared-input catalog so matching inputs are served without a refill.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" && len(cfg.ShardDirs) == 0 && len(cfg.ShardAddrs) == 0 {
		return nil, errors.New("server: Config.Dir, Config.ShardDirs, or Config.ShardAddrs required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	specs := cfg.ShardDirs
	if len(specs) == 0 && len(cfg.ShardAddrs) == 0 {
		specs = storage.ShardDirs(cfg.Dir, max(cfg.Shards, 1))
	}
	specs = append(append([]string{}, specs...), cfg.ShardAddrs...)
	m, err := storage.OpenSharded(specs, storage.ShardedOptions{
		Format:    cfg.Format,
		Placement: cfg.Placement,
		Replicas:  cfg.Replicas,
		Persist:   cfg.Persist,
		Remote:    cfg.Remote,
	})
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewPoolOptions(m, buffer.Options{
		CapacityBytes:    cfg.PoolBytes,
		Policy:           cfg.PoolPolicy,
		TenantQuotaBytes: cfg.TenantPoolQuotaBytes,
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	reg := telemetry.New()
	admitWait := reg.HistogramVec("riotshare_admission_wait_seconds",
		"Admission queue wait per tenant (Admit call to grant).", nil, "tenant")
	gcfg := govern.Config{
		MaxConcurrent:  cfg.MaxConcurrent,
		GlobalMemBytes: cfg.GlobalMemBytes,
		Tenants:        cfg.Tenants,
		OnGrant: func(tenant string, wait time.Duration) {
			admitWait.With(tenant).ObserveDuration(wait)
		},
	}
	if !cfg.NoAffinity {
		// One pool snapshot per dispatch round scores every queued
		// query's inputs without re-locking the pool per waiter.
		gcfg.Affinity = func() func(inputs []string) int64 {
			snap := pool.ResidentArrays()
			return func(inputs []string) int64 {
				var sum int64
				for _, a := range inputs {
					sum += snap[a]
				}
				return sum
			}
		}
	}
	slowLog := cfg.SlowQueryLog
	if slowLog == nil {
		slowLog = os.Stderr
	}
	s := &Server{
		cfg:       cfg,
		store:     m,
		pool:      pool,
		queries:   make(map[string]*query),
		planCache: make(map[string]*planEntry),
		planLRU:   list.New(),
		gov:       govern.New(gcfg),
		tenants:   make(map[string]*tenantCounters),
		inputs:    make(map[string]*inputState),
		reg:       reg,
		tracer:    telemetry.NewTracer(cfg.TraceCapacity),
		slowLog:   slowLog,
	}
	s.mPlanning = reg.Histogram("riotshare_planning_seconds",
		"Latency of plan-cache lookup or planning per query.", nil)
	s.mPlanningTier = reg.HistogramVec("riotshare_planning_seconds",
		"Latency of plan-cache lookup or planning per query.", nil, "tier")
	s.mSlowTotal = reg.Counter("riotshare_slow_queries_total",
		"Queries whose wall time met the slow-query threshold.")
	s.mQuery = reg.HistogramVec("riotshare_query_seconds",
		"End-to-end query wall time (planning through result collection).", nil, "program")
	s.mAdmitWait = admitWait
	s.mExecStage = reg.HistogramVec("riotshare_exec_stage_seconds",
		"Cumulative kernel wall time per pipeline stage per query.", nil, "stage")
	s.mPrefetchIssued = reg.Counter("riotshare_prefetch_issued_total",
		"Prefetchable reads issued ahead of use by the async prefetcher.")
	s.mPrefetchInline = reg.Counter("riotshare_prefetch_inline_total",
		"Prefetchable reads a consumer claimed inline (prefetch too late).")
	s.mStreamBlocks = reg.Counter("riotshare_stream_blocks_total",
		"Output blocks delivered over streamed results.")
	s.mStreamBytes = reg.Counter("riotshare_stream_bytes_total",
		"Output payload bytes delivered over streamed results.")
	s.mStreamActive = reg.Gauge("riotshare_streams_active",
		"Result streams currently on the wire.")
	s.mStreamSeconds = reg.Histogram("riotshare_stream_seconds",
		"Wall time of one result stream, open to last frame.", nil)
	s.mStreamOutcome = make(map[string]*telemetry.Counter, 3)
	for _, outcome := range []string{"done", "canceled", "error"} {
		s.mStreamOutcome[outcome] = reg.Counter("riotshare_streams_total",
			"Finished result streams by outcome.", telemetry.L("outcome", outcome))
	}
	pool.RegisterMetrics(reg)
	m.RegisterMetrics(reg)
	s.registerCollectors()
	if cfg.PlanImprover {
		s.mImprove = reg.Histogram("riotshare_plan_improver_seconds",
			"Background full-search planning time per improver run.", nil)
		ictx, cancel := context.WithCancel(context.Background()) //riotvet:allow ctxflow — server-lifetime improver loop; canceled by Close, not by any one query
		s.impCancel = cancel
		s.impCh = make(chan improveJob, 64)
		s.impWG.Add(1)
		go s.improveLoop(ictx)
	}
	return s, nil
}

// registerCollectors wires the scrape-time metric sources that sample
// existing stats snapshots: service lifecycle counters, plan cache,
// shared-input persistence, governor occupancy, and aggregate store
// I/O (per-shard detail comes from the store's own collector).
func (s *Server) registerCollectors() {
	s.reg.Collect(func(e *telemetry.Emit) {
		running, queued := s.gov.Load()
		e.Gauge("riotshare_queries_running", "Queries currently executing.", float64(running))
		e.Gauge("riotshare_queries_queued", "Queries waiting for admission.", float64(queued))
		s.mu.Lock()
		submitted, finished := s.submitted, s.finished
		s.mu.Unlock()
		e.Counter("riotshare_queries_submitted_total", "Queries accepted by Submit.", float64(submitted))
		e.Counter("riotshare_queries_finished_total", "Queries finished (done or failed).", float64(finished))
		s.planMu.Lock()
		hits, misses := s.planHits, s.planMisses
		size, evictions := s.planLRU.Len(), s.planEvictions
		s.planMu.Unlock()
		e.Counter("riotshare_plan_cache_hits_total", "Plan cache hits.", float64(hits))
		e.Counter("riotshare_plan_cache_misses_total", "Plan cache misses (plans computed).", float64(misses))
		e.Gauge("riotshare_plan_cache_entries", "Plan tables resident in the bounded cache.", float64(size))
		e.Counter("riotshare_plan_cache_evictions_total", "Plan cache entries retired by the LRU bound.", float64(evictions))
		if s.impCh != nil {
			e.Counter("riotshare_plan_improver_runs_total", "Background full-search improver runs.", float64(s.impRuns.Load()))
			e.Counter("riotshare_plan_improver_swaps_total", "Cached plan tables hot-swapped with a strictly better one.", float64(s.impSwaps.Load()))
			e.Counter("riotshare_plan_improver_dropped_total", "Improver jobs dropped on a full queue.", float64(s.impDropped.Load()))
			e.Gauge("riotshare_plan_improver_queue", "Improver jobs waiting.", float64(len(s.impCh)))
		}
		e.Counter("riotshare_input_fills_total", "Shared inputs synthesized and written.", float64(s.inputFills.Load()))
		e.Counter("riotshare_input_fills_skipped_total", "Shared inputs served from the persisted catalog.", float64(s.inputFillsSkipped.Load()))
		st := s.store.Stats()
		e.Counter("riotshare_store_read_reqs_total", "Physical block reads, all shards.", float64(st.ReadReqs))
		e.Counter("riotshare_store_read_bytes_total", "Bytes read, all shards.", float64(st.ReadBytes))
		e.Counter("riotshare_store_write_reqs_total", "Physical block writes, all shards.", float64(st.WriteReqs))
		e.Counter("riotshare_store_write_bytes_total", "Bytes written, all shards.", float64(st.WriteBytes))
	})
}

// Metrics exposes the service's telemetry registry (scraped by GET
// /metrics; components and tests may register further sources).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Tracer exposes the ring of completed query traces (GET /trace).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// Pool exposes the shared buffer pool (read-mostly: stats, flush).
func (s *Server) Pool() *buffer.Pool { return s.pool }

// RepairShard re-mirrors one degraded shard of a replicated store from the
// surviving replicas, clearing its degraded state and degraded-read
// counter; subsequent reads come off the repaired primary again. Errors on
// an unreplicated store, which has no replica to repair from.
func (s *Server) RepairShard(shard int) error {
	return s.store.Repair(shard)
}

// Store exposes the shared storage backend.
func (s *Server) Store() storage.Backend { return s.store }

// Submit validates and enqueues a request, returning the query ID. The
// query runs asynchronously; use Wait, Status, or the HTTP API to follow
// it.
func (s *Server) Submit(req Request) (string, error) {
	if (req.Program == "") == (req.Spec == nil) {
		return "", errors.New("server: exactly one of Program or Spec must be set")
	}
	p, subsets, err := s.resolve(req)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", errors.New("server: closed")
	}
	s.nextID++
	q := &query{
		id:      fmt.Sprintf("q%d", s.nextID),
		req:     req,
		prog:    p,
		subsets: subsets,
		stream:  newStreamState(),
		done:    make(chan struct{}),
	}
	q.status = QueryStatus{
		ID:        q.id,
		Program:   p.Name,
		Tenant:    req.Tenant,
		State:     StateQueued,
		PlanIndex: -1,
		Submitted: time.Now(),
	}
	s.queries[q.id] = q
	s.order = append(s.order, q.id)
	s.submitted++
	s.wg.Add(1)
	s.mu.Unlock()
	s.tenantMu.Lock()
	s.tenantLocked(req.Tenant).submitted++
	s.tenantMu.Unlock()
	go s.run(q)
	return q.id, nil
}

// tenantLocked returns (creating on first use) the per-tenant counters;
// every caller holds s.tenantMu.
func (s *Server) tenantLocked(name string) *tenantCounters {
	tc := s.tenants[name]
	if tc == nil {
		tc = &tenantCounters{}
		s.tenants[name] = tc
	}
	return tc
}

// resolve builds the request's program: an ad-hoc spec, a Config.Programs
// entry, or one of the paper's named programs with the plan restriction
// bench.PaperProgram attaches (lifted by Config.FullSearch).
func (s *Server) resolve(req Request) (*prog.Program, [][]string, error) {
	if req.Spec != nil {
		p, err := req.Spec.Build()
		return p, nil, err
	}
	if build, ok := s.cfg.Programs[req.Program]; ok {
		return build(), nil, nil
	}
	p, subsets, err := bench.PaperProgram(req.Program, s.cfg.FullSearch)
	if err != nil {
		extra := make([]string, 0, len(s.cfg.Programs))
		for n := range s.cfg.Programs {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("server: %w; configured programs: %q", err, extra)
	}
	return p, subsets, nil
}

// plans optimizes through the tiered planner, reporting which tier served
// the table: "cache" (tier 1, a resident entry), "greedy" (tier 2, the
// budgeted fast-path search under Config.PlanBudget), or "full" (the
// Apriori enumeration — every miss when no budget is set, and all
// restricted-plan programs). Greedy-planned entries are handed to the
// background improver, which hot-swaps a strictly better full-search table
// into the cache off the query path. The cache key ignores per-query
// memory caps: plan selection against a cap happens on the cached table.
func (s *Server) plans(req Request, p *prog.Program, subsets [][]string) (*core.Result, string, error) {
	key := "prog:" + req.Program
	if req.Spec != nil {
		key = req.Spec.cacheKey()
	}
	s.planMu.Lock()
	if e, ok := s.planCache[key]; ok {
		s.planHits++
		s.planLRU.MoveToFront(e.elem)
		s.planMu.Unlock()
		<-e.ready
		// Re-lock to read the table: the improver may hot-swap res after
		// the entry became ready.
		s.planMu.Lock()
		res, err := e.res, e.err
		s.planMu.Unlock()
		return res, tierCache, err
	}
	e := &planEntry{ready: make(chan struct{}), key: key}
	e.elem = s.planLRU.PushFront(e)
	s.planCache[key] = e
	s.planMisses++
	s.evictPlansLocked()
	s.planMu.Unlock()

	fill := context.Background() //riotvet:allow ctxflow — the plan fill is shared by every waiter on the cache entry; one query's cancellation must not poison it
	opt := core.Options{BindParams: true}
	tier := tierFull
	var res *core.Result
	var err error
	switch {
	case subsets != nil:
		res, err = core.OptimizeSubsetsCtx(fill, p, opt, subsets)
	case s.cfg.PlanBudget > 0:
		tier = tierGreedy
		ctx, cancel := context.WithTimeout(fill, s.cfg.PlanBudget)
		res, err = core.OptimizeGreedy(ctx, p, opt)
		if err != nil && ctx.Err() != nil {
			// The budget ran out before even the baseline was planned;
			// plan just the baseline (no subsets) without a deadline so the
			// query still runs (and the improver can upgrade it later).
			res, err = core.OptimizeSubsetsCtx(fill, p, opt, nil)
		}
		cancel()
	default:
		res, err = core.OptimizeCtx(fill, p, opt)
	}

	s.planMu.Lock()
	e.res, e.err = res, err
	e.tier = tier
	s.planMu.Unlock()
	close(e.ready)
	if tier == tierGreedy && err == nil {
		s.enqueueImprove(key, p)
	}
	return res, tier, err
}

// evictPlansLocked enforces the plan cache's LRU bound. Entries whose
// planning is still in flight are skipped: their waiters hold the entry
// pointer, and evicting them would duplicate the running search. Callers
// hold planMu.
func (s *Server) evictPlansLocked() {
	max := s.cfg.PlanCacheEntries
	if max < 0 {
		return
	}
	if max == 0 {
		max = 256
	}
	for el := s.planLRU.Back(); el != nil && s.planLRU.Len() > max; {
		prev := el.Prev()
		e := el.Value.(*planEntry)
		select {
		case <-e.ready:
			s.planLRU.Remove(el)
			delete(s.planCache, e.key)
			s.planEvictions++
		default:
		}
		el = prev
	}
}

// enqueueImprove hands a greedy-planned cache key to the improver. The
// queue is bounded and non-blocking: under a burst of novel query shapes
// excess jobs are dropped (counted) rather than stalling the query path.
func (s *Server) enqueueImprove(key string, p *prog.Program) {
	if s.impCh == nil {
		return
	}
	s.planMu.Lock()
	e, ok := s.planCache[key]
	skip := !ok || e.improved
	s.planMu.Unlock()
	if skip {
		return
	}
	select {
	case s.impCh <- improveJob{key: key, prog: p}:
	default:
		s.impDropped.Add(1)
	}
}

func (s *Server) improveLoop(ctx context.Context) {
	defer s.impWG.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-s.impCh:
			s.improveOne(ctx, job)
		}
	}
}

// improveOne re-plans one greedy-planned cache entry with the full search
// and hot-swaps the cached table when the full search's best plan does
// strictly less logical I/O. Swapping the whole *core.Result under planMu
// is atomic from the readers' side: a query sees either the old table or
// the new one, never a mix, and queries already running on the old plan
// are unaffected (their timeline is theirs). ctx cancellation (server
// Close) aborts the search mid-way.
func (s *Server) improveOne(ctx context.Context, job improveJob) {
	s.planMu.Lock()
	e, ok := s.planCache[job.key]
	if !ok || e.improved {
		s.planMu.Unlock()
		return
	}
	e.improved = true
	s.planMu.Unlock()

	start := time.Now()
	full, err := core.OptimizeCtx(ctx, job.prog, core.Options{BindParams: true})
	s.mImprove.ObserveDuration(time.Since(start))
	s.impRuns.Add(1)
	if err != nil || len(full.Plans) == 0 {
		return
	}
	s.planMu.Lock()
	defer s.planMu.Unlock()
	e, ok = s.planCache[job.key]
	if !ok || e.err != nil || e.res == nil || len(e.res.Plans) == 0 {
		return // evicted or failed meanwhile; nothing to upgrade
	}
	if full.Plans[0].Cost.LogicalIOBytes() < e.res.Plans[0].Cost.LogicalIOBytes() {
		e.res = full
		e.tier = tierFull
		s.impSwaps.Add(1)
	}
}

// selectPlan picks the forced plan index or the cheapest plan whose peak
// memory fits the per-query cap.
func selectPlan(res *core.Result, req Request) (*core.EvaluatedPlan, error) {
	if req.Plan != nil {
		i := *req.Plan
		if i < 0 || i >= len(res.Plans) {
			return nil, fmt.Errorf("server: plan %d out of range (%d plans)", i, len(res.Plans))
		}
		return &res.Plans[i], nil
	}
	if pl := res.BestUnder(req.MemCapMB << 20); pl != nil {
		return pl, nil
	}
	return nil, fmt.Errorf("server: no plan fits the %dMB memory cap", req.MemCapMB)
}

// run drives one query through optimize → admit → execute → publish, then
// enforces the output-retention bound.
func (s *Server) run(q *query) {
	defer s.wg.Done()
	err := s.runQuery(q)
	limit := s.cfg.RetainOutputs
	if limit == 0 {
		limit = 64
	}
	var victims []*query
	s.mu.Lock()
	q.status.Finished = time.Now()
	if err != nil {
		q.status.State = StateFailed
		q.status.Err = err.Error()
	} else {
		q.status.State = StateDone
		if len(q.alias) > 0 {
			s.retained = append(s.retained, q)
		}
	}
	if limit > 0 {
		for len(s.retained) > limit {
			victims = append(victims, s.retained[0])
			s.retained = s.retained[1:]
		}
	}
	s.finished++
	s.mu.Unlock()
	s.tenantMu.Lock()
	s.tenantLocked(q.req.Tenant).finished++
	s.tenantMu.Unlock()
	for _, v := range victims {
		s.dropOutputs(v)
	}
	close(q.done)
}

// dropOutputs retires a query's private output arrays: pool frames are
// discarded without write-back and the on-disk stores are closed and
// deleted. Result summaries survive; Output() for the query then errors.
func (s *Server) dropOutputs(q *query) {
	s.mu.Lock()
	if q.outputsDropped {
		s.mu.Unlock()
		return
	}
	q.outputsDropped = true
	alias := q.alias
	s.mu.Unlock()
	for _, phys := range alias {
		s.pool.DiscardArray(phys)
		// Best effort: a failed Create may have registered nothing.
		_ = s.store.Drop(phys, true)
	}
}

func (s *Server) runQuery(q *query) (retErr error) {
	// Span tree: the phases are strictly sequential in this function, so
	// child durations account for (almost all of) the root's wall time.
	root := telemetry.StartSpan("query")
	root.Annotate("program", q.prog.Name)
	if q.req.Tenant != "" {
		root.Annotate("tenant", q.req.Tenant)
	}
	defer func() {
		root.End()
		if retErr != nil {
			root.Annotate("error", retErr.Error())
		}
		s.tracer.Add(q.id, root)
		s.mQuery.With(q.prog.Name).ObserveDuration(root.Duration())
		s.maybeLogSlow(q, root, retErr)
	}()

	sp := root.Child("planning")
	res, tier, err := s.plans(q.req, q.prog, q.subsets)
	sp.End()
	s.mPlanning.ObserveDuration(sp.Duration())
	s.mPlanningTier.With(tier).ObserveDuration(sp.Duration())
	sp.Annotate("tier", tier)
	if tier == tierCache {
		sp.Annotate("cache", "hit")
	} else {
		sp.Annotate("cache", "miss")
	}
	if err != nil {
		return err
	}
	pl, err := selectPlan(res, q.req)
	if err != nil {
		return err
	}
	sp.Annotate("plan", pl.Label)
	s.mu.Lock()
	q.status.PlanIndex = pl.Index
	q.status.PlanLabel = pl.Label
	s.mu.Unlock()

	peak := pl.Cost.PeakMemoryBytes
	enqueued := time.Now()
	sp = root.Child("admission-wait")
	if err := s.gov.Admit(q.req.Tenant, peak, inputArrays(q.prog)); err != nil {
		sp.End()
		return err
	}
	sp.End()
	defer s.gov.Release(q.req.Tenant, peak)
	s.tenantMu.Lock()
	tc := s.tenantLocked(q.req.Tenant)
	tc.admissions++
	tc.waitTotal += time.Since(enqueued)
	s.tenantMu.Unlock()

	s.mu.Lock()
	q.status.State = StateRunning
	q.status.Started = time.Now()
	s.mu.Unlock()

	sp = root.Child("input-fill")
	alias, err := s.prepareArrays(q)
	sp.End()
	s.mu.Lock()
	q.alias = alias
	s.mu.Unlock()
	if err != nil {
		s.dropOutputs(q)
		return err
	}
	// The output namespace exists: streams may start resolving blocks.
	q.stream.noteAlias()
	workers, prefetch := s.cfg.Workers, s.cfg.PrefetchDepth
	if q.req.Workers > 0 {
		workers = q.req.Workers
	}
	if q.req.Prefetch > 0 {
		prefetch = q.req.Prefetch
	}
	eng := &exec.Engine{
		Store:       s.store,
		Model:       disk.PaperModel(),
		MemCapBytes: q.req.MemCapMB << 20,
		Pool:        s.pool.TenantSession(q.req.Tenant, alias),
		// Early streamed delivery: each output block's final write wakes
		// any /results/stream waiting on it.
		OnBlockWritten: q.stream.noteBlock,
	}
	sp = root.Child("exec")
	r, err := eng.RunOptions(pl.Timeline, exec.Options{Workers: workers, PrefetchDepth: prefetch})
	sp.End()
	s.recordExec(sp, r)
	if err != nil {
		s.dropOutputs(q) // partial outputs are garbage; reclaim frames + stores
		return err
	}
	// Make this query's outputs durable and retire their private frames so
	// they stop competing with shared inputs for pool capacity. Targeted
	// invalidation only: a global flush would write back other running
	// queries' dirty accumulator frames and stall them on the pool lock.
	sp = root.Child("result-fetch")
	for _, phys := range alias {
		if err := s.pool.InvalidateArray(phys); err != nil {
			sp.End()
			s.dropOutputs(q)
			return err
		}
	}
	outs, err := s.collectOutputs(q, alias)
	sp.End()
	if err != nil {
		s.dropOutputs(q)
		return err
	}
	s.mu.Lock()
	q.status.Result = &r
	q.status.Outputs = outs
	s.mu.Unlock()
	return nil
}

// recordExec attaches per-stage kernel times and prefetch counts from
// an execution's Result to its exec span and the stage histograms.
func (s *Server) recordExec(sp *telemetry.Span, r exec.Result) {
	stages := make([]string, 0, len(r.StageTimes))
	for stage := range r.StageTimes {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	for _, stage := range stages {
		d := r.StageTimes[stage]
		c := telemetry.StartSpan("stage:" + stage)
		c.EndWith(d)
		sp.AttachChild(c)
		s.mExecStage.With(stage).ObserveDuration(d)
	}
	if r.PrefetchIssued > 0 || r.PrefetchInline > 0 {
		sp.Annotate("prefetchIssued", strconv.FormatInt(r.PrefetchIssued, 10))
		sp.Annotate("prefetchInline", strconv.FormatInt(r.PrefetchInline, 10))
		s.mPrefetchIssued.Add(r.PrefetchIssued)
		s.mPrefetchInline.Add(r.PrefetchInline)
	}
}

// slowQueryLine is the JSON schema of one slow-query log line.
type slowQueryLine struct {
	Time    time.Time       `json:"ts"`
	QueryID string          `json:"queryId"`
	Program string          `json:"program"`
	Tenant  string          `json:"tenant,omitempty"`
	WallMs  float64         `json:"wallMs"`
	Err     string          `json:"error,omitempty"`
	Trace   *telemetry.Span `json:"trace"`
}

// maybeLogSlow writes one structured JSON line with the query's span
// breakdown when its wall time meets the slow-query threshold.
func (s *Server) maybeLogSlow(q *query, root *telemetry.Span, err error) {
	if s.cfg.SlowQueryMs <= 0 || root.Duration() < time.Duration(s.cfg.SlowQueryMs)*time.Millisecond {
		return
	}
	s.mSlowTotal.Inc()
	line := slowQueryLine{
		Time:    time.Now(),
		QueryID: q.id,
		Program: q.prog.Name,
		Tenant:  q.req.Tenant,
		WallMs:  float64(root.Duration()) / float64(time.Millisecond),
		Trace:   root,
	}
	if err != nil {
		line.Err = err.Error()
	}
	buf, jerr := json.Marshal(line)
	if jerr != nil {
		return
	}
	buf = append(buf, '\n')
	s.slowMu.Lock()
	_, _ = s.slowLog.Write(buf)
	s.slowMu.Unlock()
}

// prepareArrays registers the query's arrays with the shared manager:
// inputs (never written by the program) are shared by name and filled
// deterministically once; written arrays get private namespaced stores and
// an alias entry for the query's pool session.
func (s *Server) prepareArrays(q *query) (map[string]string, error) {
	p := q.prog
	written := writtenArrays(p)
	// Sort for deterministic registration order.
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	// alias is returned even on error so the caller can retire whatever
	// was already created.
	alias := make(map[string]string)
	for _, name := range names {
		arr := p.Arrays[name]
		if !written[name] {
			if err := s.ensureInput(arr); err != nil {
				return alias, err
			}
			continue
		}
		phys := q.id + "." + name
		clone := *arr
		clone.Name = phys
		if err := s.store.Create(&clone); err != nil {
			return alias, err
		}
		alias[name] = phys
	}
	return alias, nil
}

// ensureInput creates and fills a shared input array exactly once; later
// queries wait for the fill and verify shape compatibility.
func (s *Server) ensureInput(arr *prog.Array) error {
	s.inputMu.Lock()
	if st, ok := s.inputs[arr.Name]; ok {
		s.inputMu.Unlock()
		<-st.ready
		if st.err != nil {
			return fmt.Errorf("server: shared input %s: %w", arr.Name, st.err)
		}
		if !sameShape(st.arr, arr) {
			return fmt.Errorf("server: input array %q conflicts with an already-registered array of different shape (%dx%d blocks in %dx%d vs %dx%d in %dx%d)",
				arr.Name, arr.BlockRows, arr.BlockCols, arr.GridRows, arr.GridCols,
				st.arr.BlockRows, st.arr.BlockCols, st.arr.GridRows, st.arr.GridCols)
		}
		return nil
	}
	st := &inputState{ready: make(chan struct{}), arr: arr}
	s.inputs[arr.Name] = st
	s.inputMu.Unlock()
	st.err = s.fillInput(arr)
	if st.err != nil {
		// Do not poison the input name for the daemon's lifetime: retire
		// the half-created store and let a later query retry the fill.
		s.inputMu.Lock()
		delete(s.inputs, arr.Name)
		s.inputMu.Unlock()
		_ = s.store.Drop(arr.Name, true) // best effort; Create may not have registered it
	}
	close(st.ready)
	if st.err != nil {
		return fmt.Errorf("server: shared input %s: %w", arr.Name, st.err)
	}
	return nil
}

// fillInput creates and fills one shared input — unless the persistent
// catalog already holds it under a matching fill fingerprint, in which case
// the reopened store serves it with zero refill writes. A cataloged entry
// whose fingerprint does not match the expected fill (different seed,
// shape, or fill version) is retired and refilled: the catalog never lets
// stale data answer queries.
func (s *Server) fillInput(arr *prog.Array) error {
	fp := FillFingerprint(arr, s.cfg.Seed)
	if e, ok := s.store.SharedEntry(arr.Name); ok {
		if e.Fingerprint == fp && sameShape(e.Array(arr.Name), arr) {
			s.inputFillsSkipped.Add(1)
			return nil
		}
		if err := s.store.Drop(arr.Name, true); err != nil {
			return err
		}
	}
	if err := s.store.Create(arr); err != nil {
		return err
	}
	if err := FillInput(s.store, arr, s.cfg.Seed); err != nil {
		return err
	}
	s.inputFills.Add(1)
	return s.store.RecordShared(arr, fp)
}

// FillFingerprint identifies the deterministic synthetic fill of one input
// array: fill-algorithm version, seed, array name, and block/grid shape.
// Any change to these changes the data FillInput would produce, so a
// persisted store whose cataloged fingerprint matches may be served without
// a refill, and a mismatch forces one.
func FillFingerprint(arr *prog.Array, seed int64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("riotshare-fill-v1|seed=%d|array=%s|block=%dx%d|grid=%dx%d",
		seed, arr.Name, arr.BlockRows, arr.BlockCols, arr.GridRows, arr.GridCols)))
	return hex.EncodeToString(h[:])
}

// writtenArrays collects the arrays the program writes; the rest are its
// shared inputs.
func writtenArrays(p *prog.Program) map[string]bool {
	written := map[string]bool{}
	for _, st := range p.Stmts {
		if w := st.WriteAccess(); w != nil {
			written[w.Array] = true
		}
	}
	return written
}

// inputArrays returns the program's shared input arrays (never written),
// sorted — the governor scores them against pool residency for affinity
// batching.
func inputArrays(p *prog.Program) []string {
	written := writtenArrays(p)
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		if !written[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func sameShape(a, b *prog.Array) bool {
	return a.BlockRows == b.BlockRows && a.BlockCols == b.BlockCols &&
		a.GridRows == b.GridRows && a.GridCols == b.GridCols
}

// FillInput writes deterministic pseudo-random blocks for one input array.
// The sequence depends only on (seed, array name), so any process — the
// server or a standalone run validating it — produces identical data.
func FillInput(m storage.Backend, arr *prog.Array, seed int64) error {
	h := fnv.New64a()
	h.Write([]byte(arr.Name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	for bc := 0; bc < arr.GridCols; bc++ {
		for br := 0; br < arr.GridRows; br++ {
			blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
			for i := range blk.Data {
				blk.Data[i] = rng.NormFloat64()
			}
			if err := m.WriteBlock(arr.Name, int64(br), int64(bc), blk); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectOutputs summarizes the query's persistent outputs one block at a
// time — never materializing a full output matrix, so the server's
// resident memory stays bounded by one block regardless of result size
// (the same discipline the streamed delivery path follows). The summation
// order (row-major blocks, row-major elements within each block) matches
// the streamed frame order, so a streaming client accumulating in arrival
// order reproduces Sum bit for bit.
func (s *Server) collectOutputs(q *query, alias map[string]string) ([]OutputInfo, error) {
	names := make([]string, 0, len(alias))
	for name := range alias {
		names = append(names, name)
	}
	sort.Strings(names)
	var outs []OutputInfo
	for _, name := range names {
		arr := q.prog.Arrays[name]
		if arr == nil || arr.Transient {
			continue
		}
		sum := 0.0
		for br := 0; br < arr.GridRows; br++ {
			for bc := 0; bc < arr.GridCols; bc++ {
				blk, err := s.store.ReadBlock(alias[name], int64(br), int64(bc))
				if err != nil {
					return nil, err
				}
				for _, v := range blk.Data {
					sum += v
				}
			}
		}
		outs = append(outs, OutputInfo{
			Array: name, Physical: alias[name],
			Rows: arr.BlockRows * arr.GridRows, Cols: arr.BlockCols * arr.GridCols,
			Sum: sum,
		})
	}
	return outs, nil
}

// readFullArray assembles a stored array (under its physical name) into
// one matrix.
func readFullArray(m storage.Backend, arr *prog.Array, phys string) (*blas.Matrix, error) {
	full := blas.NewMatrix(arr.BlockRows*arr.GridRows, arr.BlockCols*arr.GridCols)
	for br := 0; br < arr.GridRows; br++ {
		for bc := 0; bc < arr.GridCols; bc++ {
			blk, err := m.ReadBlock(phys, int64(br), int64(bc))
			if err != nil {
				return nil, err
			}
			for r := 0; r < arr.BlockRows; r++ {
				for c := 0; c < arr.BlockCols; c++ {
					full.Set(br*arr.BlockRows+r, bc*arr.BlockCols+c, blk.At(r, c))
				}
			}
		}
	}
	return full, nil
}

// Output assembles one persistent output array of a finished query.
func (s *Server) Output(id, array string) (*blas.Matrix, error) {
	s.mu.Lock()
	q, ok := s.queries[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown query %q", id)
	}
	<-q.done
	s.mu.Lock()
	dropped := q.outputsDropped
	var phys string
	for _, o := range q.status.Outputs {
		if o.Array == array {
			phys = o.Physical
		}
	}
	s.mu.Unlock()
	if dropped {
		return nil, fmt.Errorf("server: query %s outputs were retired (RetainOutputs policy)", id)
	}
	if phys == "" {
		return nil, fmt.Errorf("server: query %s has no output array %q", id, array)
	}
	return readFullArray(s.store, q.prog.Arrays[array], phys)
}

// Status snapshots one query.
func (s *Server) Status(id string) (QueryStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[id]
	if !ok {
		return QueryStatus{}, fmt.Errorf("server: unknown query %q", id)
	}
	return q.statusCopy(), nil
}

func (q *query) statusCopy() QueryStatus {
	st := q.status
	if st.Result != nil {
		r := *st.Result
		st.Result = &r
	}
	st.Outputs = append([]OutputInfo(nil), q.status.Outputs...)
	return st
}

// Wait blocks until the query finishes and returns its final status.
func (s *Server) Wait(id string) (QueryStatus, error) {
	return s.WaitCtx(context.Background(), id) //riotvet:allow ctxflow — compatibility wrapper; cancelable callers use WaitCtx
}

// WaitCtx blocks until the query finishes or ctx is canceled; on
// cancellation it returns ctx's error without waiting further. The HTTP
// /results?wait=1 path waits under the request context, so a client that
// went away stops holding the handler (and the materialized result)
// alive.
func (s *Server) WaitCtx(ctx context.Context, id string) (QueryStatus, error) {
	s.mu.Lock()
	q, ok := s.queries[id]
	s.mu.Unlock()
	if !ok {
		return QueryStatus{}, fmt.Errorf("server: unknown query %q", id)
	}
	select {
	case <-q.done:
	case <-ctx.Done():
		return QueryStatus{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return q.statusCopy(), nil
}

// List snapshots every query in submission order.
func (s *Server) List() []QueryStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueryStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.queries[id].statusCopy())
	}
	return out
}

// Stats snapshots service-wide counters.
func (s *Server) Stats() Stats {
	running, queued := s.gov.Load()
	loads := s.gov.TenantLoads()
	waits := s.gov.TenantWaits()
	s.mu.Lock()
	submitted, finished := s.submitted, s.finished
	s.mu.Unlock()
	s.planMu.Lock()
	hits, misses := s.planHits, s.planMisses
	cacheSize, evictions := s.planLRU.Len(), s.planEvictions
	s.planMu.Unlock()
	st := Stats{
		Pool:               s.pool.Stats(),
		Store:              s.store.Stats(),
		Shards:             s.store.ShardStats(),
		Replicas:           s.store.Replicas(),
		DegradedReads:      s.store.DegradedReads(),
		Running:            running,
		Queued:             queued,
		Submitted:          submitted,
		Finished:           finished,
		PlanCacheHits:      hits,
		PlanCacheMisses:    misses,
		PlanCacheSize:      cacheSize,
		PlanCacheEvictions: evictions,
		InputFills:         s.inputFills.Load(),
		InputFillsSkipped:  s.inputFillsSkipped.Load(),
		Streams:            s.streamStats(),
	}
	if hits+misses > 0 {
		st.PlanCacheHitRate = float64(hits) / float64(hits+misses)
	}
	const ms = float64(time.Millisecond)
	st.PlanningP50Ms = s.mPlanning.Quantile(0.50) * float64(time.Second) / ms
	st.PlanningP95Ms = s.mPlanning.Quantile(0.95) * float64(time.Second) / ms
	st.PlanningP99Ms = s.mPlanning.Quantile(0.99) * float64(time.Second) / ms
	for _, tier := range planTiers {
		h := s.mPlanningTier.With(tier)
		if h.Count() == 0 {
			continue
		}
		if st.PlanningTiers == nil {
			st.PlanningTiers = make(map[string]PlanningTierStats, len(planTiers))
		}
		st.PlanningTiers[tier] = PlanningTierStats{
			Count: h.Count(),
			P50Ms: h.Quantile(0.50) * float64(time.Second) / ms,
			P95Ms: h.Quantile(0.95) * float64(time.Second) / ms,
			P99Ms: h.Quantile(0.99) * float64(time.Second) / ms,
		}
	}
	if s.impCh != nil {
		st.Improver = &ImproverStats{
			Runs:       s.impRuns.Load(),
			Swaps:      s.impSwaps.Load(),
			Dropped:    s.impDropped.Load(),
			QueueDepth: len(s.impCh),
			SearchMs:   s.mImprove.Sum() * float64(time.Second) / ms,
		}
	}
	// Per-tenant view: union of the governor's occupancy, the server's
	// lifecycle counters, and the pool's per-tenant slice.
	s.tenantMu.Lock()
	names := map[string]bool{}
	for name := range s.tenants {
		names[name] = true
	}
	for name := range loads {
		names[name] = true
	}
	for name := range waits {
		names[name] = true
	}
	for name := range st.Pool.Tenants {
		names[name] = true
	}
	if len(names) > 0 {
		st.Tenants = make(map[string]TenantStats, len(names))
		for name := range names {
			ts := TenantStats{}
			if ld, ok := loads[name]; ok {
				ts.Running, ts.Queued, ts.MemBytes = ld.Running, ld.Queued, ld.MemBytes
			}
			if tc := s.tenants[name]; tc != nil {
				ts.Submitted, ts.Finished = tc.submitted, tc.finished
				if tc.admissions > 0 {
					ts.AvgQueueWaitMs = float64(tc.waitTotal) / float64(time.Millisecond) / float64(tc.admissions)
				}
			}
			if wq, ok := waits[name]; ok {
				ts.QueueWaitP50Ms = float64(wq.P50) / float64(time.Millisecond)
				ts.QueueWaitP95Ms = float64(wq.P95) / float64(time.Millisecond)
				ts.QueueWaitP99Ms = float64(wq.P99) / float64(time.Millisecond)
			}
			if ps, ok := st.Pool.Tenants[name]; ok {
				ts.PoolHits, ts.PoolMisses = ps.Hits, ps.Misses
				ts.PoolHitRate = ps.HitRate()
				ts.BytesCached = ps.BytesCached
				ts.PoolQuotaBytes = ps.QuotaBytes
			}
			st.Tenants[name] = ts
		}
	}
	s.tenantMu.Unlock()
	return st
}

// Close stops accepting submissions, fails queries still waiting for
// admission, waits for running queries to finish, flushes the pool and
// closes storage.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.gov.Close()
	s.wg.Wait()
	// Stop the improver after the last query drained: cancellation aborts
	// a running background search via the ctx plumbed through the core
	// search loop.
	if s.impCancel != nil {
		s.impCancel()
		s.impWG.Wait()
	}
	err := s.pool.Flush()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}
