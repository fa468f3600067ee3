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
// Programs can also be assembled statement by statement through NewProgram
// and Program.NewStatement, mixed with the Scan and NLJoin operators, which
// is the path for user-defined operators: the optimizer reasons about any
// static-control loop nest, not a fixed operator list (§2 of the paper).
package riotshare

import (
	"riotshare/internal/buffer"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// Program is a static-control program over blocked arrays (§4.1).
type Program = prog.Program

// Array describes a disk-resident blocked array.
type Array = prog.Array

// Read and Write are the access types.
const (
	Read  = prog.Read
	Write = prog.Write
)

// NewProgram creates a program with the given global parameters (each
// constrained >= 1).
func NewProgram(name string, params ...string) *Program { return prog.New(name, params...) }

// V and C build affine expressions (a parameter or loop variable, and a
// constant) for the statement builder.
var (
	V = prog.V
	C = prog.C
)

// Dims is a block shape in elements.
type Dims = ops.Dims

// Scan and NLJoin append a table-scan aggregate and a blocked nested-loop
// join, each as one statement in a new loop nest.
var (
	Scan   = ops.Scan
	NLJoin = ops.NLJoin
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

// Optimize runs the optimizer pipeline — analysis, plan search, lowering and
// costing (Figure 2 of the paper) — with the full Apriori plan search.
// OptimizeSubsets is the same pipeline with a restricted search. Neither
// takes a context because the examples and cmd/riotshare call them as they
// are.
func Optimize(p *Program, opt Options) (*Result, error) { return core.Optimize(p, opt) }

// OptimizeSubsets is Optimize with the search restricted to the named
// sharing-opportunity combinations (plus the no-sharing baseline), skipping
// the full enumeration.
func OptimizeSubsets(p *Program, opt Options, subsets [][]string) (*Result, error) {
	return core.OptimizeSubsets(p, opt, subsets)
}

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
// riotblockd servers, or a mix. Placement, replication, manifests, and
// results are identical whichever kind each shard is.
func OpenShardedStorage(specs []string, opt ShardedStorageOptions) (*ShardedStorage, error) {
	return storage.OpenSharded(specs, opt)
}

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

// BufferPool is the capacity-bounded, sharing-aware block cache in front
// of a storage manager: ref-counted pins driven by each plan's hold
// intervals, LRU eviction of unpinned blocks, deferred dirty write-back,
// and hit/miss/eviction statistics (per tenant as well as in total). Share
// one pool across concurrent executions (via ExecOptions.Pool) so a block
// read by one query is a cache hit for the next.
type BufferPool = buffer.Pool

// NewBufferPool creates a pool over the manager with the given soft
// capacity in bytes (<= 0 = unlimited).
func NewBufferPool(store StorageBackend, capacityBytes int64) *BufferPool {
	return buffer.NewPool(store, capacityBytes)
}
