// Package server is the multi-query analytics service: a session and
// admission layer that accepts program submissions (named benchmark
// programs or statement-builder JSON specs), optimizes them through a plan
// cache, admits executions through a tenant-aware governor (round-robin
// across per-tenant FIFO queues under K slots and a global memory cap; see
// internal/govern), and runs them over one shared, sharing-aware buffer
// pool — so a block read by one query is a cache hit for the next. It
// turns the single-shot optimizer into a long-running service, extending
// the paper's intra-program I/O sharing across concurrent queries and
// tenants.
//
// Input arrays (arrays a program never writes) are shared across queries by
// name: the first query to reference one creates and fills it, later
// queries — and concurrent ones — read the very same blocks through the
// pool. Written arrays are namespaced per query ("q3.E"), so concurrent
// executions of the same program cannot collide, while their ExecResults
// stay identical to standalone runs.
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
	"maps"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/bench"
	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/codegen"
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
	// Format must be storage.FormatDAF (the zero value), the only block
	// format; New refuses any other. The field remains only because the
	// benchmark of record reads it.
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
	// PoolPolicy names the pool's replacement policy. LRU is the only
	// one: "" or "lru"; New refuses any other value.
	PoolPolicy string
	// MaxConcurrent is K, the number of concurrently executing queries
	// (default 2).
	MaxConcurrent int
	// GlobalMemBytes caps the combined peak (logical) memory of admitted
	// plans (0 = unlimited). A query whose plan alone exceeds it fails at
	// admission rather than starving the queue.
	GlobalMemBytes int64
	// Workers selects every query's execution schedule (<= 1 = in-order,
	// more = the pipelined DAG schedule on that many kernel workers).
	Workers int
	// Seed drives the deterministic synthetic fill of shared input arrays.
	Seed int64
	// RetainOutputs bounds how many finished (done or failed) queries the
	// server remembers. Past it the oldest record retires whole — status,
	// output stores (each holds a file descriptor) and traces — so the
	// daemon stays bounded; its id then answers expired (HTTP 410).
	// 0 = default (64), < 0 = unlimited.
	RetainOutputs int
	// PlanBudget, when > 0, is the wall-clock deadline of a cache-miss
	// query's plan fill: the Apriori search (core's Shape.Optimize),
	// analysis included. A fill the deadline cuts off serves the best plan
	// among those found so far, and a program whose analysis outlasts it
	// is served its original schedule, without sharing. 0 = no deadline:
	// the fill ends when the search completes or reaches its call budget
	// (core.Options.MaxCalls' default). See docs/planner.md.
	PlanBudget time.Duration
	// PlanCacheEntries bounds the plan cache, and the program-shape
	// cache behind it; the least recently used entry is evicted past the
	// cap (0 = default 256, < 0 = unlimited).
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
}

// Request is one program submission.
type Request struct {
	// Program names a registered program, or Spec carries a
	// statement-builder JSON program; exactly one must be set.
	Program string       `json:"program,omitempty"`
	Spec    *ProgramSpec `json:"spec,omitempty"`
	// Tenant labels the submission for the governor's round-robin and the
	// per-tenant stats ("" = the anonymous tenant). The server keeps the
	// first 512 distinct labels as given; later new ones share "~other".
	Tenant string `json:"tenant,omitempty"`
	// MemCapMB bounds the chosen plan's peak (logical) memory and is
	// enforced during execution (0 = unlimited: the cheapest plan wins).
	MemCapMB int64 `json:"memCapMB,omitempty"`
	// Plan forces a plan index from the planner's table, which holds
	// every legal plan the search found, cheapest I/O time first (nil =
	// cheapest plan fitting MemCapMB). A plan other than the cheapest is
	// lowered at the program's sizes the first time a query selects it.
	Plan *int `json:"plan,omitempty"`
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
	Array    string `json:"array"`
	Physical string `json:"physical"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	// Sum is a cheap cross-check of the output's values: each block's
	// elements summed in row-major order from 0, and those block sums
	// added in row-major block order (collectOutputs). It is
	// bit-identical under every schedule, pool and store.
	Sum float64 `json:"sum"`
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

// TenantStats is one tenant's slice of the service counters: governor
// occupancy (queue depth, running, admitted memory footprint), submission
// lifecycle counts, admission queue wait, and its share of the buffer pool
// (hit rate, resident bytes).
type TenantStats struct {
	Running        int     `json:"running"`
	Queued         int     `json:"queued"`
	MemBytes       int64   `json:"memBytes,omitempty"`
	Submitted      int64   `json:"submitted"`
	Finished       int64   `json:"finished"`
	AvgQueueWaitMs float64 `json:"avgQueueWaitMs"`
	// Queue-wait percentiles (admission request to grant), estimated
	// within a bucket of the tenant's riotshare_admission_wait_seconds
	// histogram — the one record of admission wait, whose sum over count
	// is AvgQueueWaitMs.
	QueueWaitP50Ms float64 `json:"queueWaitP50Ms"`
	QueueWaitP95Ms float64 `json:"queueWaitP95Ms"`
	QueueWaitP99Ms float64 `json:"queueWaitP99Ms"`
	PoolHits       int64   `json:"poolHits"`
	PoolMisses     int64   `json:"poolMisses"`
	PoolHitRate    float64 `json:"poolHitRate"`
	BytesCached    int64   `json:"bytesCached"`
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
	// PlanShapeHits and PlanShapeMisses count plan fills, and lowerings
	// of a plan other than a table's cheapest, that found their program
	// shape's prepared analysis resident or prepared it;
	// PlanShapeEntries is the number of resident shapes, bounded like the
	// plan cache by Config.PlanCacheEntries.
	PlanShapeHits    int64 `json:"planShapeHits"`
	PlanShapeMisses  int64 `json:"planShapeMisses"`
	PlanShapeEntries int   `json:"planShapeEntries"`
	// PlanningTiers breaks planning latency down per tier ("cache",
	// "shape", "greedy"); only tiers that served at least one query
	// appear.
	PlanningTiers map[string]PlanningTierStats `json:"planningTiers,omitempty"`

	// SlowQueries counts the queries whose wall time met
	// Config.SlowQueryMs, one slow-query log line each.
	SlowQueries int64 `json:"slowQueries"`
	// PrefetchIssued totals the blocks the DAG schedule's prefetcher
	// acquired ahead of use; PrefetchInline the prefetchable blocks a
	// worker reached first and acquired itself (exec.Result's counters,
	// summed over every execution).
	PrefetchIssued int64 `json:"prefetchIssued"`
	PrefetchInline int64 `json:"prefetchInline"`
	// ResultReadBlocks counts the output blocks the result summary read
	// back from the store because no final write summed them (a block no
	// event writes). Exec's final-write hook sums every other output
	// block, so it is 0 while every output is fully written.
	ResultReadBlocks int64 `json:"resultReadBlocks"`

	// Process is the daemon process's CPU time, allocation and GC
	// counters; in-process block servers and clients count toward it.
	Process telemetry.Process `json:"process"`

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

// Planner tier labels for riotshare_planning_seconds{tier=...} and
// Stats.PlanningTiers. tierGreedy labels a fill that prepared its program
// shape; it keeps the name of the search such fills once ran, which the
// benchmark's per-layer pass reads.
const (
	tierCache  = "cache"
	tierShape  = "shape"
	tierGreedy = "greedy"
)

// Server is the multi-query analytics service.
type Server struct {
	cfg   Config
	store *storage.ShardedManager
	pool  *buffer.Pool

	inputFills, inputFillsSkipped atomic.Int64

	mu        sync.Mutex
	queries   map[string]*query // every query until it retires
	finishedQ []*query          // the RetainOutputs FIFO, oldest first
	nextID    int
	closed    bool
	submitted int64
	finished  int64
	wg        sync.WaitGroup

	// Plan cache: bounded LRU over planEntry. planLRU's front is the most
	// recently used entry; eviction walks from the back, skipping entries
	// whose planning is still in flight. The program-shape cache behind
	// it is a second such LRU, over shapeEntry, with the same bound.
	planMu        sync.Mutex
	planCache     map[string]*planEntry
	planLRU       *list.List
	planHits      int64
	planMisses    int64
	planEvictions int64
	shapeCache    map[string]*shapeEntry
	shapeLRU      *list.List
	shapeHits     int64
	shapeMisses   int64
	// tierHists holds the riotshare_planning_seconds{tier} series of the
	// tiers that have served a query; see tierHistogram.
	tierHists map[string]*telemetry.Histogram
	// fillCtx is the context every plan fill runs under. A fill is shared
	// by every waiter on its cache entry, so no one query's cancellation
	// stops it; Close does, by calling stopFills.
	fillCtx   context.Context
	stopFills context.CancelFunc

	gov *govern.Governor

	tenantMu sync.Mutex
	tenants  map[string]*tenantCounters

	inputMu sync.Mutex
	inputs  map[string]*inputState

	// reg is the service's metrics registry, scraped by GET /metrics
	// (span trees live on the query records). It holds the latency
	// histograms below, registered once at startup (the labeled families
	// are memoizing vecs, so the steady-state query path takes the
	// registry lock only the first time a program or stage label is
	// seen), and one collector that renders Stats (metrics.go).
	reg            *telemetry.Registry
	mPlanning      *telemetry.Histogram
	mQuery         *telemetry.HistogramVec // by program
	mExecStage     *telemetry.HistogramVec // by stage
	mStreamSeconds *telemetry.Histogram
	slowMu         sync.Mutex
	slowLog        io.Writer

	// Counters the server increments itself, read by Stats.
	slowQueries                    atomic.Int64
	prefetchIssued, prefetchInline atomic.Int64
	resultReadBlocks               atomic.Int64
	// Streamed result delivery (stream.go), read into Stats.Streams.
	streamsActive                                atomic.Int64
	streamedBlocks, streamedBytes                atomic.Int64
	streamsDone, streamsCanceled, streamsErrored atomic.Int64
}

// tenantCounters aggregates one tenant's submission lifecycle on the
// server side (the governor and pool keep their own per-tenant views).
type tenantCounters struct {
	submitted, finished int64
	// admitWait is the tenant's riotshare_admission_wait_seconds series,
	// registered by its first admission (see admitWaitHistogram).
	admitWait *telemetry.Histogram
}

// maxTenantLabels bounds the distinct tenant labels the server keys state
// by. Labels are client-chosen strings, and each one adds a governor
// queue, tenant counters, pool accounting and metric series for the
// daemon's lifetime; past the bound, every new label maps to
// overflowTenant.
const maxTenantLabels = 512

// overflowTenant is the label new tenants share past maxTenantLabels.
const overflowTenant = "~other"

// lruEntry is what the plan and shape caches' entries share: each is
// filled once, and its payload is written before ready closes and never
// again, so a reader that received from ready needs no lock. key and elem
// tie the entry into its cache's LRU list (guarded by planMu).
type lruEntry struct {
	ready chan struct{}
	key   string
	elem  *list.Element
}

// planEntry is one plan table: every plan's label, cost and schedule, and
// of their timelines only best's, the cheapest plan's (BestUnder(0)). A
// query that selects another plan lowers it once, into lowered.
type planEntry struct {
	lruEntry
	res  *core.Result // without analysis, searcher or timelines
	best *codegen.Timeline
	err  error

	mu      sync.Mutex
	lowered map[int]*codegen.Timeline // by plan index; guarded by mu
}

// shapeEntry is one program shape's prepared analysis and schedule-search
// memos (core.Shape).
type shapeEntry struct {
	lruEntry
	shape *core.Shape
	err   error
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
	if cfg.Format != storage.FormatDAF {
		return nil, fmt.Errorf("server: unknown block format %d (only DAF exists)", int(cfg.Format))
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
		Replicas: cfg.Replicas,
		Persist:  cfg.Persist,
		Remote:   cfg.Remote,
	})
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewPoolOptions(m, buffer.Options{
		CapacityBytes: cfg.PoolBytes,
		Policy:        cfg.PoolPolicy,
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	reg := telemetry.New()
	slowLog := cfg.SlowQueryLog
	if slowLog == nil {
		slowLog = os.Stderr
	}
	s := &Server{
		cfg:        cfg,
		store:      m,
		pool:       pool,
		queries:    make(map[string]*query),
		planCache:  make(map[string]*planEntry),
		planLRU:    list.New(),
		shapeCache: make(map[string]*shapeEntry),
		shapeLRU:   list.New(),
		tierHists:  make(map[string]*telemetry.Histogram),
		gov:        govern.New(govern.Config{MaxConcurrent: cfg.MaxConcurrent, GlobalMemBytes: cfg.GlobalMemBytes}),
		tenants:    make(map[string]*tenantCounters),
		inputs:     make(map[string]*inputState),
		reg:        reg,
		slowLog:    slowLog,
	}
	s.fillCtx, s.stopFills = context.WithCancel(context.Background()) //riotvet:allow ctxflow — plan fills are shared by every waiter on a cache entry; one query's cancellation must not poison them, and Close cancels them
	s.mPlanning = reg.Histogram(planningFamily, planningHelp, nil)
	s.mQuery = reg.HistogramVec("riotshare_query_seconds",
		"End-to-end query wall time (planning through result collection).", nil, "program")
	s.mExecStage = reg.HistogramVec("riotshare_exec_stage_seconds",
		"Cumulative kernel wall time per pipeline stage per query.", nil, "stage")
	s.mStreamSeconds = reg.Histogram("riotshare_stream_seconds",
		"Wall time of one result stream, open to last frame.", nil)
	m.RegisterMetrics(reg)
	reg.Collect(func(e *telemetry.Emit) {
		st := s.Stats()
		st.emit(e)
	})
	return s, nil
}

// Metrics exposes the service's telemetry registry (scraped by GET
// /metrics; components and tests may register further sources).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

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
	p, err := s.resolve(req)
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
		id:     "q" + strconv.Itoa(s.nextID),
		seq:    s.nextID,
		req:    req,
		prog:   p,
		stream: newStreamState(),
		done:   make(chan struct{}),
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
	s.submitted++
	s.wg.Add(1)
	s.mu.Unlock()
	s.tenantMu.Lock()
	q.tenant = req.Tenant
	if _, ok := s.tenants[q.tenant]; !ok && len(s.tenants) >= maxTenantLabels {
		q.tenant = overflowTenant
	}
	s.tenantLocked(q.tenant).submitted++
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
// entry, or one of the paper's named programs.
func (s *Server) resolve(req Request) (*prog.Program, error) {
	if req.Spec != nil {
		return req.Spec.Build()
	}
	if build, ok := s.cfg.Programs[req.Program]; ok {
		return build(), nil
	}
	p, _, err := bench.PaperProgram(req.Program, false)
	if err != nil {
		extra := make([]string, 0, len(s.cfg.Programs))
		for n := range s.cfg.Programs {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("server: %w; configured programs: %q", err, extra)
	}
	return p, nil
}

// plans optimizes through the tiered planner, reporting which tier served
// the table: "cache" (a resident entry), "shape" (a fill whose program
// shape was already prepared: it binds that analysis at the program's
// sizes and searches with the shape's memo), or "greedy" (a fill that
// prepared the shape; the label predates the search it now runs). Every
// fill runs one search, the Apriori one (core's Shape.Optimize), under
// Config.PlanBudget as its deadline when one is set, and keeps the
// timeline of the cheapest plan only (see timeline). An entry is planned
// once and never replaced. The cache key ignores per-query memory caps:
// plan selection against a cap happens on the cached table. The plan
// budget bounds the whole fill, the analysis included: a fill whose
// budget ends before the analysis does serves the original schedule
// alone (core.OriginalPlan), as it does when the budget ends before the
// baseline's search.
func (s *Server) plans(req Request, p *prog.Program) (*planEntry, string, error) {
	key, shapeKey := planKeys(req)
	s.planMu.Lock()
	if e, ok := s.planCache[key]; ok {
		s.planHits++
		s.planLRU.MoveToFront(e.elem)
		s.planMu.Unlock()
		<-e.ready
		return e, tierCache, e.err
	}
	e := &planEntry{lruEntry: lruEntry{ready: make(chan struct{}), key: key}}
	e.elem = s.planLRU.PushFront(&e.lruEntry)
	s.planCache[key] = e
	s.planMisses++
	s.planEvictions += s.evictLocked(s.planLRU, func(k string) { delete(s.planCache, k) })
	s.planMu.Unlock()

	opt := core.Options{BindParams: true}
	ctx, cancel := s.fillCtx, context.CancelFunc(func() {})
	if s.cfg.PlanBudget > 0 {
		ctx, cancel = context.WithTimeout(s.fillCtx, s.cfg.PlanBudget)
	}
	tier := tierGreedy
	sh, found, err := s.programShape(ctx, shapeKey, p, opt)
	if found {
		tier = tierShape
	}
	var res *core.Result
	if err == nil {
		res, err = sh.Optimize(ctx, p, opt)
	} else if ctx.Err() != nil { // the budget, or Close, ended the preparation
		res, err = core.OriginalPlan(ctx, p, opt)
	}
	cancel()

	if res != nil { // keep the plan table, not the analysis, searcher and timelines behind it
		plans := slices.Clone(res.Plans)
		for i := range plans {
			plans[i].Timeline = nil
		}
		e.best = res.Plans[0].Timeline
		e.res = &core.Result{Plans: plans, OptimizeTime: res.OptimizeTime, SearchStats: res.SearchStats}
		e.res.Best = e.res.BestUnder(0)
	}
	e.err = err
	close(e.ready)
	return e, tier, err
}

// planKeys returns the request's plan-cache key and program-shape key.
func planKeys(req Request) (key, shapeKey string) {
	if req.Spec != nil {
		return req.Spec.cacheKey(), req.Spec.programShapeKey()
	}
	return "prog:" + req.Program, "prog:" + req.Program
}

// timeline returns the timeline of the entry's plan i for p, the program
// the entry was filled for: best for plan 0, and otherwise the plan
// lowered at p's sizes from the program shape, once per entry however
// many queries select it at once. Close stops a lowering that has to
// prepare the shape again.
func (s *Server) timeline(e *planEntry, i int, req Request, p *prog.Program) (*codegen.Timeline, error) {
	if i == 0 {
		return e.best, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if tl := e.lowered[i]; tl != nil {
		return tl, nil
	}
	_, shapeKey := planKeys(req)
	sh, _, err := s.programShape(s.fillCtx, shapeKey, p, core.Options{BindParams: true})
	if err != nil {
		return nil, err
	}
	tl, err := sh.Lower(s.fillCtx, p, e.res.Plans[i].Plan)
	if err != nil {
		return nil, err
	}
	if e.lowered == nil {
		e.lowered = make(map[int]*codegen.Timeline)
	}
	e.lowered[i] = tl
	return tl, nil
}

// programShape returns the program shape keyed by key, preparing it from p
// under ctx when no entry holds it; found reports that an entry did. A
// preparation that fails, a cut-off one included, leaves no entry, and a
// fill that was waiting on it with its own context still live prepares
// the shape itself.
func (s *Server) programShape(ctx context.Context, key string, p *prog.Program, opt core.Options) (*core.Shape, bool, error) {
	for {
		s.planMu.Lock()
		e, found := s.shapeCache[key]
		if found {
			s.shapeHits++
			s.shapeLRU.MoveToFront(e.elem)
		} else {
			e = &shapeEntry{lruEntry: lruEntry{ready: make(chan struct{}), key: key}}
			e.elem = s.shapeLRU.PushFront(&e.lruEntry)
			s.shapeCache[key] = e
			s.shapeMisses++
			s.evictLocked(s.shapeLRU, func(k string) { delete(s.shapeCache, k) })
		}
		s.planMu.Unlock()

		if !found {
			e.shape, e.err = core.PrepareShape(ctx, p, opt)
			if e.err != nil {
				s.planMu.Lock()
				s.shapeLRU.Remove(e.elem)
				delete(s.shapeCache, key)
				s.planMu.Unlock()
			}
			close(e.ready)
			return e.shape, false, e.err
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, true, fmt.Errorf("server: waiting for the program shape: %w", ctx.Err())
		}
		if e.err == nil || ctx.Err() != nil {
			return e.shape, true, e.err
		}
	}
}

// evictLocked enforces the PlanCacheEntries bound on one of the plan
// caches, retiring from the least recently used end and reporting how
// many entries it retired. Entries still being filled are skipped: their
// waiters hold the entry pointer, and evicting them would duplicate the
// running fill. drop removes a retired key from the cache's map. Callers
// hold planMu.
func (s *Server) evictLocked(lru *list.List, drop func(key string)) int64 {
	max := s.cfg.PlanCacheEntries
	if max < 0 {
		return 0
	}
	if max == 0 {
		max = 256
	}
	var n int64
	for el := lru.Back(); el != nil && lru.Len() > max; {
		prev := el.Prev()
		e := el.Value.(*lruEntry)
		select {
		case <-e.ready:
			lru.Remove(el)
			drop(e.key)
			n++
		default:
		}
		el = prev
	}
	return n
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
		s.mu.Lock()
		q.trace = root
		s.mu.Unlock()
		s.mQuery.With(q.prog.Name).ObserveDuration(root.Duration())
		s.maybeLogSlow(q, root, retErr)
	}()

	sp := root.Child("planning")
	e, tier, err := s.plans(q.req, q.prog)
	var pl *core.EvaluatedPlan
	var tl *codegen.Timeline
	if err == nil {
		if pl, err = selectPlan(e.res, q.req); err == nil {
			tl, err = s.timeline(e, pl.Index, q.req, q.prog)
		}
	}
	sp.End()
	s.mPlanning.ObserveDuration(sp.Duration())
	s.tierHistogram(tier).ObserveDuration(sp.Duration())
	sp.Annotate("tier", tier)
	if tier == tierCache {
		sp.Annotate("cache", "hit")
	} else {
		sp.Annotate("cache", "miss")
	}
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
	if err := s.gov.Admit(q.tenant, peak); err != nil {
		sp.End()
		return err
	}
	sp.End()
	defer s.gov.Release(q.tenant, peak)
	s.admitWaitHistogram(q.tenant).ObserveDuration(time.Since(enqueued))

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
	sess := s.pool.TenantSession(q.tenant, alias)
	sums := newOutputSums(q.prog, alias)
	eng := &exec.Engine{
		Model:       disk.PaperModel(),
		MemCapBytes: q.req.MemCapMB << 20,
		Pool:        sess,
		// Each output block's final write is summed while exec still
		// holds it, then wakes any /results/stream waiting on it (early
		// streamed delivery).
		OnBlockWritten: func(id prog.BlockID, blk *blas.Matrix) {
			sums.note(id, blk)
			q.stream.noteBlock(id)
		},
		// An intermediate block past its last use leaves the pool
		// unwritten.
		OnBlockDead: sess.DiscardBlock,
	}
	sp = root.Child("exec")
	r, err := eng.RunOptions(tl, exec.Options{Workers: s.cfg.Workers})
	sp.End()
	s.recordExec(sp, r)
	if err != nil {
		s.dropOutputs(q) // partial outputs are garbage; reclaim frames + stores
		return err
	}
	// Make the outputs durable — each output block is written once — and
	// retire the query's private frames so they stop competing with shared
	// inputs for pool capacity; intermediates are dropped unwritten.
	// Targeted invalidation only: a global flush would write back other
	// running queries' dirty accumulator frames. Then summarize the outputs
	// from the sums their final writes left; a block no event wrote is
	// read from the store, where it now reads as it will for any client.
	sp = root.Child("result-fetch")
	for name, phys := range alias {
		if q.prog.Arrays[name].Transient {
			s.pool.DiscardArray(phys)
		} else if err = s.pool.InvalidateArray(phys); err != nil {
			break
		}
	}
	var outs []OutputInfo
	if err == nil {
		outs, err = s.collectOutputs(q, sess, sums)
	}
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
		s.prefetchIssued.Add(r.PrefetchIssued)
		s.prefetchInline.Add(r.PrefetchInline)
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
	s.slowQueries.Add(1)
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

// outputSums holds, per persistent output array of one running query, one
// slot per block: the block's row-major element sum, taken by exec's
// final-write hook while the block's final value is still in hand. Each
// slot is written once, by the worker that made the block's final write;
// collectOutputs reads them after the run has joined its workers. The map
// itself is built before the run and only read during it.
type outputSums map[string]*blockSums

// blockSums is one array's slots, row-major over its block grid; set marks
// the slots a final write filled.
type blockSums struct {
	gridCols int64
	sum      []float64
	set      []bool
}

// newOutputSums allocates the slots of every persistent array the query
// writes (alias's keys).
func newOutputSums(p *prog.Program, alias map[string]string) outputSums {
	sums := make(outputSums)
	for name := range alias {
		arr := p.Arrays[name]
		if arr == nil || arr.Transient {
			continue
		}
		n := arr.GridRows * arr.GridCols
		sums[name] = &blockSums{gridCols: int64(arr.GridCols), sum: make([]float64, n), set: make([]bool, n)}
	}
	return sums
}

// note fills the slot of a block whose final write produced blk; blocks of
// transient arrays have no slot.
func (o outputSums) note(id prog.BlockID, blk *blas.Matrix) {
	if bs := o[id.Array]; bs != nil {
		i := id.R*bs.gridCols + id.C
		bs.sum[i], bs.set[i] = blockSum(blk), true
	}
}

// blockSum is a block's elements summed in row-major order from 0.
func blockSum(blk *blas.Matrix) float64 {
	s := 0.0
	for _, v := range blk.Data {
		s += v
	}
	return s
}

// collectOutputs summarizes the query's persistent outputs. An output's
// Sum is the sum, in row-major block order, of each block's own row-major
// element sum (blockSum): a two-level fold whose per-block terms exec's
// final-write hook leaves in sums, so the summary reads nothing back and
// its value is the same under every schedule. A block whose slot no final
// write filled (the program never writes it) is read through the query's
// pool session, which does not install it again, and counted in
// Stats.ResultReadBlocks. A streaming client that sums each block frame
// and adds the block sums in arrival order reproduces Sum bit for bit.
func (s *Server) collectOutputs(q *query, sess *buffer.Session, sums outputSums) ([]OutputInfo, error) {
	names := make([]string, 0, len(q.alias))
	for name := range q.alias {
		names = append(names, name)
	}
	sort.Strings(names)
	var outs []OutputInfo
	for _, name := range names {
		arr := q.prog.Arrays[name]
		if arr == nil || arr.Transient {
			continue
		}
		bs := sums[name]
		sum := 0.0
		for br := int64(0); br < int64(arr.GridRows); br++ {
			for bc := int64(0); bc < int64(arr.GridCols); bc++ {
				if i := br*bs.gridCols + bc; bs.set[i] {
					sum += bs.sum[i]
					continue
				}
				blk, err := sess.Read(name, br, bc)
				if err != nil {
					return nil, err
				}
				s.resultReadBlocks.Add(1)
				sum += blockSum(blk)
			}
		}
		outs = append(outs, OutputInfo{
			Array: name, Physical: q.alias[name],
			Rows: arr.BlockRows * arr.GridRows, Cols: arr.BlockCols * arr.GridCols,
			Sum: sum,
		})
	}
	return outs, nil
}

// Stats snapshots service-wide counters. GET /stats serves the snapshot as
// JSON, and every /metrics scrape takes one and renders it (metrics.go).
// Taking it registers no metric series.
func (s *Server) Stats() Stats {
	running, queued := s.gov.Load()
	loads := s.gov.TenantLoads()
	s.mu.Lock()
	submitted, finished := s.submitted, s.finished
	s.mu.Unlock()
	s.planMu.Lock()
	hits, misses := s.planHits, s.planMisses
	cacheSize, evictions := s.planLRU.Len(), s.planEvictions
	shapeHits, shapeMisses, shapeEntries := s.shapeHits, s.shapeMisses, s.shapeLRU.Len()
	tierHists := maps.Clone(s.tierHists)
	s.planMu.Unlock()
	// One snapshot of the shards (one stats round trip per remote shard)
	// yields the per-shard rows and the totals, so Store always equals
	// their sum.
	shards := s.store.ShardStats()
	var store storage.Stats
	var degradedReads int64
	for _, sh := range shards {
		store.ReadReqs += sh.ReadReqs
		store.ReadBytes += sh.ReadBytes
		store.WriteReqs += sh.WriteReqs
		store.WriteBytes += sh.WriteBytes
		degradedReads += sh.DegradedReads
	}
	st := Stats{
		Pool:               s.pool.Stats(),
		Store:              store,
		Shards:             shards,
		Replicas:           s.store.Replicas(),
		DegradedReads:      degradedReads,
		Running:            running,
		Queued:             queued,
		Submitted:          submitted,
		Finished:           finished,
		PlanCacheHits:      hits,
		PlanCacheMisses:    misses,
		PlanCacheSize:      cacheSize,
		PlanCacheEvictions: evictions,
		PlanShapeHits:      shapeHits,
		PlanShapeMisses:    shapeMisses,
		PlanShapeEntries:   shapeEntries,
		InputFills:         s.inputFills.Load(),
		InputFillsSkipped:  s.inputFillsSkipped.Load(),
		SlowQueries:        s.slowQueries.Load(),
		PrefetchIssued:     s.prefetchIssued.Load(),
		PrefetchInline:     s.prefetchInline.Load(),
		ResultReadBlocks:   s.resultReadBlocks.Load(),
		Process:            telemetry.ReadProcess(),
		Streams: StreamStats{
			Active:    int(s.streamsActive.Load()),
			Completed: s.streamsDone.Load(),
			Canceled:  s.streamsCanceled.Load(),
			Errors:    s.streamsErrored.Load(),
			Blocks:    s.streamedBlocks.Load(),
			Bytes:     s.streamedBytes.Load(),
		},
	}
	if hits+misses > 0 {
		st.PlanCacheHitRate = float64(hits) / float64(hits+misses)
	}
	const ms = float64(time.Millisecond)
	st.PlanningP50Ms = s.mPlanning.Quantile(0.50) * float64(time.Second) / ms
	st.PlanningP95Ms = s.mPlanning.Quantile(0.95) * float64(time.Second) / ms
	st.PlanningP99Ms = s.mPlanning.Quantile(0.99) * float64(time.Second) / ms
	for tier, h := range tierHists {
		if h.Count() == 0 {
			continue
		}
		if st.PlanningTiers == nil {
			st.PlanningTiers = make(map[string]PlanningTierStats, len(tierHists))
		}
		st.PlanningTiers[tier] = PlanningTierStats{
			Count: h.Count(),
			P50Ms: h.Quantile(0.50) * float64(time.Second) / ms,
			P95Ms: h.Quantile(0.95) * float64(time.Second) / ms,
			P99Ms: h.Quantile(0.99) * float64(time.Second) / ms,
		}
	}
	// Per-tenant view: every submitted label (which covers every tenant
	// the governor has seen) plus the pool's per-tenant slice.
	s.tenantMu.Lock()
	names := map[string]bool{}
	for name := range s.tenants {
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
				if h := tc.admitWait; h.Count() > 0 {
					ts.AvgQueueWaitMs = h.Sum() / float64(h.Count()) * float64(time.Second) / ms
					ts.QueueWaitP50Ms = h.Quantile(0.50) * float64(time.Second) / ms
					ts.QueueWaitP95Ms = h.Quantile(0.95) * float64(time.Second) / ms
					ts.QueueWaitP99Ms = h.Quantile(0.99) * float64(time.Second) / ms
				}
			}
			if ps, ok := st.Pool.Tenants[name]; ok {
				ts.PoolHits, ts.PoolMisses = ps.Hits, ps.Misses
				ts.PoolHitRate = ps.HitRate()
				ts.BytesCached = ps.BytesCached
			}
			st.Tenants[name] = ts
		}
	}
	s.tenantMu.Unlock()
	return st
}

// Close stops accepting submissions, stops plan fills still in flight,
// fails queries still waiting for admission, waits for running queries to
// finish, flushes the pool and closes storage.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.stopFills()
	s.gov.Close()
	s.wg.Wait()
	err := s.pool.Flush()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}
