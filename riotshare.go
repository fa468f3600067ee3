// Package riotshare is a Go implementation of RIOTShare, the I/O-sharing
// optimizer for big array analytics of Zhang and Yang, "Optimizing I/O for
// Big Array Analytics", PVLDB 5(8), 2012.
//
// RIOTShare takes a static-control program over disk-resident array blocks
// (matrix pipelines, linear regression, scans and joins over blocked
// relations, or user-defined loop nests), extracts data dependences and I/O
// sharing opportunities as integer polyhedra, searches the space of affine
// schedules with an Apriori-style enumeration, costs every legal plan (I/O
// volume and peak memory), and executes the chosen plan through a
// sharing-aware buffer manager over a block storage engine that keeps each
// array in one directly addressable file (DAF).
//
// Typical use:
//
//	p := riotshare.AddMul(riotshare.AddMulConfig{
//	    N1: 12, N2: 12, N3: 1,
//	    ABBlock: riotshare.Dims{Rows: 6000, Cols: 4000},
//	    DBlock:  riotshare.Dims{Rows: 4000, Cols: 5000},
//	})
//	res, err := riotshare.Optimize(p, riotshare.Options{
//	    BindParams:  true,
//	    MemCapBytes: 1 << 30,
//	})
//	// res.Best is the cheapest legal plan fitting the cap; execute it:
//	store, _ := riotshare.NewStorage(dir)
//	store.CreateAll(p)
//	result, err := riotshare.Execute(res.Best, store, riotshare.PaperDiskModel(), 0)
//
// Programs can also be assembled operator by operator (MatAdd, MatMulAcc,
// MatInv, MatSub, RSS, Scan, NLJoin) or statement by statement through
// NewProgram and the Statement builder, which is the path for user-defined
// operators: the optimizer reasons about any static-control loop nest, not
// a fixed operator list (§2 of the paper).
package riotshare

import (
	"context"

	"riotshare/internal/buffer"
	"riotshare/internal/codegen"
	"riotshare/internal/core"
	"riotshare/internal/deps"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/server"
	"riotshare/internal/storage"
)

// Program is a static-control program over blocked arrays (§4.1).
type Program = prog.Program

// Statement is one statement of a program with its iteration domain.
type Statement = prog.Statement

// Array describes a disk-resident blocked array.
type Array = prog.Array

// Expr is an affine expression used by the statement builder.
type Expr = prog.Expr

// Cond is an affine access guard.
type Cond = prog.Cond

// AccessType distinguishes reads from writes.
type AccessType = prog.AccessType

// Read and Write are the access types.
const (
	Read  = prog.Read
	Write = prog.Write
)

// NewProgram creates a program with the given global parameters (each
// constrained >= 1).
func NewProgram(name string, params ...string) *Program { return prog.New(name, params...) }

// V, C, GE and EQ build affine expressions and guards for the statement
// builder.
var (
	V  = prog.V
	C  = prog.C
	GE = prog.GE
	EQ = prog.EQ
)

// Schedule maps statement instances to multidimensional time.
type Schedule = prog.Schedule

// Dims is a block shape in elements.
type Dims = ops.Dims

// Mat describes one matrix of a program.
type Mat = ops.Mat

// Operator-library builders (each appends one statement as a new loop
// nest).
var (
	MatAdd    = ops.MatAdd
	MatMulAcc = ops.MatMulAcc
	MatSub    = ops.MatSub
	MatInv    = ops.MatInv
	RSS       = ops.RSS
	Scan      = ops.Scan
	NLJoin    = ops.NLJoin
)

// AddMulConfig, TwoMMConfig and LinRegConfig size the paper's three
// benchmark programs.
type (
	AddMulConfig = ops.AddMulConfig
	TwoMMConfig  = ops.TwoMMConfig
	LinRegConfig = ops.LinRegConfig
)

// AddMul builds Example 1 (C = A+B; E = C·D).
func AddMul(cfg AddMulConfig) *Program { return ops.AddMul(cfg) }

// TwoMM builds the two-multiplication program (C = A·B; E = A·D).
func TwoMM(cfg TwoMMConfig) *Program { return ops.TwoMM(cfg) }

// LinReg builds the seven-step ordinary-least-squares program.
func LinReg(cfg LinRegConfig) *Program { return ops.LinReg(cfg) }

// Options configures optimization.
type Options = core.Options

// Result is the optimizer output: all legal plans, costed and sorted.
type Result = core.Result

// EvaluatedPlan is one legal plan with its cost and executable timeline.
type EvaluatedPlan = core.EvaluatedPlan

// Analysis exposes the extracted dependences and sharing opportunities.
type Analysis = deps.Analysis

// CoAccess is a dependence or sharing opportunity with its extent
// polyhedron.
type CoAccess = deps.CoAccess

// Timeline is a lowered, executable plan.
type Timeline = codegen.Timeline

// Optimize runs the optimizer pipeline — analysis, plan search, lowering and
// costing (Figure 2 of the paper) — with the full Apriori plan search.
// OptimizeSubsets and OptimizeGreedy are the same pipeline with a different
// search. Optimize and OptimizeSubsets take no context because the
// examples and cmd/riotshare call them as they are.
func Optimize(p *Program, opt Options) (*Result, error) { return core.Optimize(p, opt) }

// OptimizeSubsets is Optimize with the search restricted to the named
// sharing-opportunity combinations (plus the no-sharing baseline), skipping
// the full enumeration.
func OptimizeSubsets(p *Program, opt Options, subsets [][]string) (*Result, error) {
	return core.OptimizeSubsets(p, opt, subsets)
}

// OptimizeGreedy is Optimize with the budgeted fast-path search (the
// server's tier-2 planner): a greedy cost-ordered accretion over sharing
// opportunities that runs O(n) schedule searches instead of the Apriori
// enumeration's exponential worst case. Canceling ctx mid-search keeps the
// best plan found so far rather than failing, and canceling it before the
// no-sharing baseline is planned, analysis included, serves the original
// schedule as the baseline. See docs/planner.md.
func OptimizeGreedy(ctx context.Context, p *Program, opt Options) (*Result, error) {
	return core.OptimizeGreedy(ctx, p, opt)
}

// OptimizeBlockSizeCtx co-optimizes array block sizes with I/O sharing (the
// §7 future-work extension); a deadline or shutdown on ctx interrupts the
// per-scale sweep.
var OptimizeBlockSizeCtx = core.OptimizeBlockSizeCtx

// DiskModel converts I/O volumes to estimated seconds.
type DiskModel = disk.Model

// PaperDiskModel returns the sustained rates benchmarked in §6 (96 MB/s
// reads, 60 MB/s writes).
func PaperDiskModel() DiskModel { return disk.PaperModel() }

// RefinedDiskModel adds a per-request overhead to the linear model.
func RefinedDiskModel(overheadSec float64) DiskModel { return disk.RefinedModel(overheadSec) }

// Storage is the RIOTStore single-directory block store manager.
type Storage = storage.Manager

// StorageBackend is the block-storage abstraction execution and buffering
// run over: the single-directory *Storage or a *ShardedStorage implement
// it interchangeably.
type StorageBackend = storage.Backend

// ShardedStorage stripes blocks across N shards — local directories
// (stand-ins for devices) and remote riotblockd servers, mixed freely —
// with deterministic placement, per-shard physical I/O stats, and parallel
// cross-shard reads. With Replicas = k > 1 each block is mirrored on its
// primary shard plus the next k-1 in ring order: a lost shard then degrades
// reads to the surviving replicas (DegradeShard takes one offline
// explicitly, an unreachable server degrades automatically, DegradedReads
// counts the fallbacks) and Repair re-mirrors it in place. With persistence
// enabled it catalogs shared arrays in a per-shard-root manifest — written
// atomically and fsynced — so they survive restarts, and a shard whose
// manifest is lost or torn reopens degraded instead of failing while
// replication still covers every block.
type ShardedStorage = storage.ShardedManager

// ShardedStorageOptions configures OpenShardedStorage (replication,
// persistence, remote-client tuning).
type ShardedStorageOptions = storage.ShardedOptions

// ShardStats is one shard's physical I/O counters with its spec (directory
// or address), degraded state, and degraded-read (replica fallback) count.
type ShardStats = storage.ShardStats

// OpenShardedStorage opens (or, with persistence, reopens) a sharded store
// over the given shard specs: directory paths, host:port addresses of
// riotblockd servers, or a mix (see IsRemoteShardSpec). Placement,
// replication, manifests, and results are identical whichever kind each
// shard is.
func OpenShardedStorage(specs []string, opt ShardedStorageOptions) (*ShardedStorage, error) {
	return storage.OpenSharded(specs, opt)
}

// RemoteShard is a block-storage backend served by one riotblockd process
// over the wire protocol in docs/remote-protocol.md: a pooled, pipelining,
// retrying client that satisfies StorageBackend. Usually used indirectly —
// OpenShardedStorage builds one per host:port spec — but it works
// standalone as a single-shard store too.
type RemoteShard = storage.RemoteShard

// RemoteShardOptions tunes a remote shard client: connection pool size,
// dial and per-operation timeouts, and the retry/backoff policy for
// transient failures.
type RemoteShardOptions = storage.RemoteOptions

// ErrShardUnavailable marks a persistent connection-level failure against
// a remote shard (connection refused, or retries exhausted); a replicated
// ShardedStorage responds by degrading the shard instead of failing
// queries.
var ErrShardUnavailable = storage.ErrShardUnavailable

// NewRemoteShard creates a client for the riotblockd server at addr
// (host:port). Connections are lazy: the server may come up later.
func NewRemoteShard(addr string, opt RemoteShardOptions) *RemoteShard {
	return storage.NewRemoteShard(addr, opt)
}

// IsRemoteShardSpec reports whether a shard spec names a riotblockd
// address (host:port) rather than a local directory.
var IsRemoteShardSpec = storage.IsRemoteSpec

// ShardDirs derives N shard directory paths under one root (shard-0 …
// shard-N-1), the default layout when shards are not separate devices.
var ShardDirs = storage.ShardDirs

// NewStorage creates a storage manager writing one DAF per array under dir.
func NewStorage(dir string) (*Storage, error) {
	return storage.NewManager(dir, storage.FormatDAF)
}

// ExecResult reports a physical plan execution.
type ExecResult = exec.Result

// ExecOptions selects the schedule the execution engine's one interpreter
// runs under: Workers <= 1 executes the plan's events in timeline order on
// the calling goroutine, Workers > 1 executes them from the event
// dependence DAG on that many concurrent kernel workers, prefetching up to
// 2*Workers blocks (fewer when a memory cap leaves less headroom above the
// plan's peak). Logical I/O accounting and numerics are identical for every
// worker count.
type ExecOptions = exec.Options

// Execute runs an evaluated plan against storage with the given disk model
// and optional memory cap (bytes; 0 = unlimited). Input arrays must already
// be stored; output and intermediate blocks are produced by the run.
func Execute(pl *EvaluatedPlan, store StorageBackend, model DiskModel, memCapBytes int64) (ExecResult, error) {
	return ExecuteOptions(pl, store, model, memCapBytes, ExecOptions{})
}

// ExecuteOptions is Execute under the schedule opt selects. With
// Workers > 1 a worker pool runs independent in-core kernels concurrently
// while a prefetcher issues block reads ahead of the timeline, preserving
// the plan's exact I/O volumes and bit-identical numerics. A plan whose
// working set exceeds memCapBytes is refused before any physical I/O,
// under either schedule.
func ExecuteOptions(pl *EvaluatedPlan, store StorageBackend, model DiskModel, memCapBytes int64, opt ExecOptions) (ExecResult, error) {
	eng := &exec.Engine{Store: store, Model: model, MemCapBytes: memCapBytes}
	return eng.RunOptions(pl.Timeline, opt)
}

// Pseudocode renders a plan's recovered loop nest (§5.5-style output).
func Pseudocode(pl *EvaluatedPlan) string { return pl.Timeline.Pseudocode() }

// StorageStats snapshots a manager's physical I/O counters (requests and
// bytes that actually reached a block store; buffer-pool hits and coalesced
// reads do not count).
type StorageStats = storage.Stats

// BufferPool is the capacity-bounded, sharing-aware block cache in front
// of a storage manager: ref-counted pins driven by each plan's hold
// intervals, LRU eviction of unpinned blocks, deferred dirty write-back,
// and hit/miss/eviction statistics (per tenant as well as in total). Share one pool
// across concurrent executions (via ExecOptions.Pool or the multi-query
// server) so a block read by one query is a cache hit for the next.
type BufferPool = buffer.Pool

// BufferPoolStats snapshots a pool's counters, including the sticky
// eviction write-back error and the per-tenant breakdown.
type BufferPoolStats = buffer.Stats

// BlockPool is the acquisition interface the execution engines use;
// *BufferPool and its aliasing sessions implement it.
type BlockPool = exec.BlockPool

// NewBufferPool creates a pool over the manager with the given soft
// capacity in bytes (<= 0 = unlimited).
func NewBufferPool(store StorageBackend, capacityBytes int64) *BufferPool {
	return buffer.NewPool(store, capacityBytes)
}

// ServerConfig sizes the multi-query analytics service.
type ServerConfig = server.Config

// Server is the multi-query analytics service: a session/admission layer
// that optimizes submissions through a plan cache, admits up to K
// concurrent executions under a global memory cap, and runs them over one
// shared buffer pool. On a replicated sharded store (ServerConfig.Replicas
// >= 2) it survives a lost shard directory — reads degrade to replicas —
// and RepairShard (or POST /repair) heals the shard in place.
type Server = server.Server

// QueryRequest is one program submission: a named benchmark program or a
// statement-builder JSON spec.
type QueryRequest = server.Request

// QueryStatus is a point-in-time snapshot of one submitted query.
type QueryStatus = server.QueryStatus

// ProgramSpec is the JSON statement-builder program form accepted by the
// server (the paper's user-defined-operator path, §2).
type ProgramSpec = server.ProgramSpec

// ServerStats reports service-wide counters: pool hit rates, physical
// storage I/O, admission occupancy, the plan cache, and the per-tenant
// breakdown (queue depth, hit rate, bytes cached).
type ServerStats = server.Stats

// ServerTenantStats is one tenant's slice of the service counters.
type ServerTenantStats = server.TenantStats

// StreamStats reports the streamed result delivery path (/results/stream):
// active streams, finished streams by outcome, and delivered block/byte
// totals. See docs/streaming.md.
type StreamStats = server.StreamStats

// Stream frame kinds for the binary /results/stream wire format: the
// "kind" byte of each blockproto-framed message (array header, block,
// end-of-stream, in-band error). The frame layout is specified in
// docs/streaming.md.
const (
	StreamFrameArray = server.StreamFrameArray
	StreamFrameBlock = server.StreamFrameBlock
	StreamFrameEnd   = server.StreamFrameEnd
	StreamFrameError = server.StreamFrameError
)

// Stream retention modes (?retain= on /results/stream): retire delivered
// pool frames (evict, the default), or additionally drop the query's output
// stores after a complete stream.
const (
	StreamRetainEvict = server.RetainEvict
	StreamRetainDrop  = server.RetainDrop
)

// NewServer creates a multi-query service with its own shared storage
// manager and buffer pool.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Serve runs the multi-query service's HTTP/JSON API (submit, status,
// results, queries, stats) on addr until ctx is canceled, then shuts down
// gracefully. cmd/riotshared is a thin wrapper around it.
func Serve(ctx context.Context, addr string, cfg ServerConfig) error {
	return server.ListenAndServe(ctx, addr, cfg)
}
