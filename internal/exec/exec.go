// Package exec physically executes lowered plans (timelines). It is one
// interpreter of the paper's §5.5 execution rule ("RIOTShare injects
// additional code to ensure that all array block accesses are fulfilled
// either by blocks already buffered in memory or by I/O"): execEvent carries
// one statement instance out physically. It takes each operand block from
// the run's shared buffer or acquires it from the run's BlockPool, runs the
// in-core kernel on real data, puts the result back, and keeps shared
// blocks buffered — and their pool frames pinned — exactly for their hold
// intervals.
//
// Nothing here counts the plan. A run's logical volumes and peak working
// set come from codegen.Timeline.Account, the accounting cost.Evaluate
// prices, so Result equals the cost model's prediction by construction;
// RunOptions refuses a plan whose peak exceeds Engine.MemCapBytes before
// any physical I/O.
//
// There is one source of blocks, the run's BlockPool (pool.go): the pool
// the caller supplied — Engine.Store is then unused, the pool fronts its
// own store — or else a pass-through pool over Engine.Store. RunOptions
// resolves which once; nothing below it knows.
//
// One ownership rule governs every block: a block that came from
// BlockPool.Acquire is borrowed — the same matrix may be in the pool's
// frame and in other queries' hands, so nobody writes to it — while a block
// execEvent allocated is owned by the run and may be written in place.
// Kernels only read their operands, so reads cost no copy; the one
// copy-on-write is in execEvent, where a write targets a buffered block that
// is still a borrowed one.
//
// Two hooks tell the caller about a block's physical life. OnBlockWritten
// fires when a block's final value is in the pool, so a result can stream
// while the run goes on; OnBlockDead fires when no remaining event touches a
// transient block, so the pool can drop it without ever writing it back —
// footnote 8's elided dead write, carried through to the physical layer.
//
// Two schedules drive execEvent. The in-order schedule (Workers <= 1) calls
// it for events 0..n-1 on the caller's goroutine. The DAG schedule
// (Workers > 1, pipeline.go) calls it from a worker pool as the event
// dependence graph allows, with an asynchronous prefetcher reading ahead.
// Result's volumes are the plan's, not an artifact of interleaving, so they
// are the same under either schedule.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/codegen"
	"riotshare/internal/disk"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// Result reports an execution.
type Result struct {
	// Logical I/O volumes (paper-scale accounting).
	ReadBytes, WriteBytes int64
	ReadReqs, WriteReqs   int64
	// SimulatedIOSec converts the volumes with the disk model.
	SimulatedIOSec float64
	// CPUTime is the wall time spent inside compute kernels.
	CPUTime time.Duration
	// PeakMemoryBytes is the maximum buffered logical working set.
	PeakMemoryBytes int64
	// StageTimes maps statement name → cumulative kernel wall time for
	// that pipeline stage (parallel runs sum across workers, so stage
	// times can exceed wall time). Nil until the first kernel runs.
	StageTimes map[string]time.Duration
	// PrefetchIssued counts prefetchable block reads the async
	// prefetcher issued ahead of use; PrefetchInline counts the ones a
	// consumer reached before the prefetcher did and acquired on its own
	// (the window was too small, or the walk too slow, to get ahead of
	// execution). Both are zero under the in-order schedule.
	PrefetchIssued, PrefetchInline int64
}

// Engine executes timelines against a storage backend (a single-directory
// manager or a sharded store — placement is invisible to execution).
type Engine struct {
	// Store is where blocks live when no pool is set; with a pool it is
	// unused (the pool reads and writes its own store).
	Store storage.Backend
	Model disk.Model
	// MemCapBytes, when nonzero, makes execution fail — before any physical
	// I/O — if the plan's buffered working set ever exceeds the cap (the
	// optimizer must have chosen a plan that fits, §4.2).
	MemCapBytes int64
	// Pool, when non-nil, is the sharing-aware buffer pool every physical
	// block read and write goes through, so concurrent queries over one
	// pool serve each other's blocks from memory. Pool frames are pinned
	// for the plan's hold intervals. Logical I/O accounting (Result) is
	// identical with or without it.
	Pool BlockPool
	// OnBlockWritten, when non-nil, is invoked once per written block
	// right after the block's final write reaches the run's BlockPool —
	// from that moment an Acquire through the same pool returns its final
	// value, even while later pipeline stages still run (WAW and dataflow
	// edges order every earlier write before the final one). With a
	// buffer pool the write is a deferred dirty install, not yet durable
	// in the store; without one it is the store write itself. The
	// multi-query server uses it to begin streaming finished output
	// blocks early. Calls may come from worker goroutines; the callback
	// must be cheap and safe for concurrent use. Blocks whose last write
	// is memory-only (transient state) produce no call.
	OnBlockWritten func(array string, r, c int64)
	// OnBlockDead, when non-nil, is invoked once per block of a transient
	// array after the last event touching it has completed and released
	// its pins: the run will neither Acquire nor Put the block again, so
	// its value is garbage and a dirty frame of it need never be written
	// back. Under either schedule it is a countdown over the events whose
	// access sets touch the block, not the last event in timeline order
	// (the DAG schedule does not order reads of one block). A failed event
	// counts nothing down, but events that completed before or alongside a
	// failure may still announce, which is harmless: a failed run's arrays
	// are garbage anyway. Persistent arrays never produce a call. The same
	// concurrency rules as OnBlockWritten apply.
	OnBlockDead func(array string, r, c int64)
}

// Options selects the schedule of one run.
type Options struct {
	// Workers is the number of concurrent kernel workers of the DAG
	// schedule; values <= 1 select the in-order schedule. The DAG
	// schedule prefetches up to 2*Workers blocks ahead of their
	// consumers, fewer when a nonzero Engine.MemCapBytes leaves less
	// headroom above the plan's peak.
	Workers int
	// Pool, when non-nil, overrides Engine.Pool for this run.
	Pool BlockPool
}

// Run executes the timeline under the in-order schedule.
func (e *Engine) Run(tl *codegen.Timeline) (Result, error) {
	return e.RunOptions(tl, Options{})
}

// RunOptions executes the timeline: it fills the logical Result from the
// timeline's accounting and refuses an over-cap plan, then the schedule opt
// selects drives execEvent over every event. Result is identical under
// either schedule (modulo CPUTime and StageTimes, which are measured wall
// time inside kernels, and the prefetch counters).
func (e *Engine) RunOptions(tl *codegen.Timeline, opt Options) (Result, error) {
	pool := opt.Pool
	if pool == nil {
		pool = e.Pool
	}
	if pool == nil {
		pool = newDirectPool(e.Store, opt.Workers > 1)
	}
	sets := tl.AccessSets()
	a := tl.Account(sets)
	res := Result{
		ReadBytes: a.ReadBytes, WriteBytes: a.WriteBytes,
		ReadReqs: a.ReadReqs, WriteReqs: a.WriteReqs,
		PeakMemoryBytes: a.PeakMemoryBytes,
	}
	if e.MemCapBytes > 0 && a.PeakMemoryBytes > e.MemCapBytes {
		return res, fmt.Errorf("exec: memory cap exceeded: %d > %d bytes", a.PeakMemoryBytes, e.MemCapBytes)
	}
	kernels, err := resolveKernels(tl.Prog)
	if err != nil {
		return res, err
	}
	rs := &runState{
		e: e, pool: pool, tl: tl, sets: sets, kernels: kernels,
		buf: make(map[prog.BlockID]block),
	}
	defer func() { // a failed run leaves held blocks behind; a complete one, none
		for _, b := range rs.buf {
			rs.drop(b)
		}
	}()
	intervals, err := rs.coverHolds()
	if err != nil {
		return res, err
	}
	if e.OnBlockWritten != nil {
		rs.finalize = finalWrites(sets)
	}
	if e.OnBlockDead != nil {
		rs.dying = transientTouches(tl.Prog, sets)
	}
	if opt.Workers <= 1 {
		for i := range tl.Events {
			if err = rs.execEvent(i); err != nil {
				break
			}
		}
	} else {
		err = rs.runDAG(intervals, opt, res.PeakMemoryBytes)
	}
	if err != nil {
		return res, err
	}
	res.CPUTime = rs.cpuTime
	res.StageTimes = rs.stageTimes
	res.PrefetchIssued = rs.pfIssued.Load()
	res.PrefetchInline = rs.pfInline.Load()
	res.SimulatedIOSec = e.Model.Time(res.ReadBytes, res.WriteBytes, res.ReadReqs, res.WriteReqs)
	return res, nil
}

// ivState is one merged hold interval plus its runtime refcount: the
// buffered block is released when every event that touches it inside the
// interval has completed ("expire holds ending at this event", in a form
// that does not depend on completion order).
type ivState struct {
	iv        codegen.HoldInterval
	accessors []int // events in [iv.Start, iv.End] touching the block, ascending
	refs      int32
}

// block is one block of a run's working set under the ownership rule of the
// package doc: borrowed marks a matrix that came from the pool and must not
// be written; otherwise execEvent allocated it and the run may write it in
// place. pins counts the pool pins the record owns — one per Acquire and
// Put made for it — so keeping the record keeps the frame resident and
// runState.drop releases it.
type block struct {
	m        *blas.Matrix
	borrowed bool
	id       prog.BlockID
	pins     int
}

// runState is the state of one run, shared by the events of either
// schedule.
type runState struct {
	e       *Engine
	pool    BlockPool // the run's one source of blocks
	tl      *codegen.Timeline
	sets    [][]codegen.BlockAccess
	kernels []kernel // by Statement.ID
	// cover[i][id] is the merged hold interval covering event i for block
	// id (Start <= i <= End and event i touches the block); nil map when
	// event i covers nothing.
	cover []map[prog.BlockID]*ivState
	// finalize[i] lists blocks whose final physical write is event i
	// (nil when the engine has no OnBlockWritten callback).
	finalize [][]prog.BlockID
	// dying[i] lists event i's accesses of transient blocks, each with its
	// block's countdown (nil when the engine has no OnBlockDead callback).
	dying [][]*countdown

	mu sync.Mutex // guards buf, interval refcounts and the DAG scheduler's bookkeeping
	// buf holds the blocks of active hold intervals, with the pins their
	// events took; each is dropped when its interval's last accessor
	// completes.
	buf map[prog.BlockID]block

	kernelMu   sync.Mutex
	stageTimes map[string]time.Duration // becomes Result.StageTimes
	cpuTime    time.Duration            // guarded by kernelMu

	// Everything below belongs to the DAG schedule (pipeline.go) and stays
	// zero under the in-order one.

	pp *pipeline

	// window tracks the prefetch walk's unconsumed entries; slots bounds
	// how many of them the prefetcher may have pinned at once.
	winMu  sync.Mutex
	window map[prog.BlockID]*pfEntry
	slots  chan struct{}
	// pfWG tracks the prefetcher and every read goroutine it spawned;
	// runDAG joins it so no straggler touches the pool or storage after
	// the run returns.
	pfWG sync.WaitGroup

	cancel  chan struct{}
	failErr error
	once    sync.Once

	// pfIssued/pfInline count prefetchable reads the prefetcher issued
	// ahead of use vs. ones a consumer reached first.
	pfIssued atomic.Int64
	pfInline atomic.Int64
}

// coverHolds indexes the timeline's merged hold intervals by the events
// that touch them (rs.cover) and returns them sorted by block and Start. An
// interval must begin at an event that accesses its block: that event is
// what buffers it.
func (rs *runState) coverHolds() ([]*ivState, error) {
	rs.cover = make([]map[prog.BlockID]*ivState, len(rs.sets))
	var out []*ivState
	for _, iv := range rs.tl.HoldIntervals() {
		st := &ivState{iv: iv}
		for i := iv.Start; i <= iv.End; i++ {
			if r, w := touch(rs.sets[i], iv.Block); !r && !w {
				continue
			}
			st.accessors = append(st.accessors, i)
			if rs.cover[i] == nil {
				rs.cover[i] = make(map[prog.BlockID]*ivState)
			}
			rs.cover[i][iv.Block] = st
		}
		if len(st.accessors) == 0 || st.accessors[0] != iv.Start {
			return nil, fmt.Errorf("exec: hold interval %s[%d..%d] start event does not access the block",
				iv.Block, iv.Start, iv.End)
		}
		st.refs = int32(len(st.accessors))
		out = append(out, st)
	}
	return out, nil
}

// touch reports whether an event's access set reads and writes the block.
func touch(set []codegen.BlockAccess, id prog.BlockID) (read, write bool) {
	for i := range set {
		if set[i].Block != id {
			continue
		}
		if set[i].Type == prog.Read {
			read = true
		} else {
			write = true
		}
	}
	return read, write
}

// drop releases the pool pins a block record owns.
func (rs *runState) drop(b block) {
	if b.pins > 0 {
		rs.pool.Unpin(b.id.Array, b.id.R, b.id.C, b.pins)
	}
}

// execEvent runs one statement instance: take each operand from the shared
// buffer or acquire it from the pool, run the kernel, put the result back,
// then retain and release held blocks. It is the only code that does so,
// under either schedule; the schedule guarantees that every event this one
// depends on has completed.
func (rs *runState) execEvent(i int) (err error) {
	tl := rs.tl
	ev := tl.Events[i]
	set := rs.sets[i]
	cover := rs.cover[i]

	// Blocks live for this event, each with the pins the event took on it.
	// A block whose hold interval extends past the event moves to rs.buf,
	// pins and all; the rest are dropped when the event finishes. Only then,
	// with every pin of the event released, does a completed event count
	// down the transient blocks it touched.
	local := make(map[prog.BlockID]*block, len(set))
	defer func() {
		for _, b := range local {
			rs.drop(*b)
		}
		if err == nil && rs.dying != nil {
			rs.countDown(i)
		}
	}()

	var kernelIn []*blas.Matrix // read operands in access order
	var outBlk *blas.Matrix
	var writeBA *codegen.BlockAccess
	var accRead *blas.Matrix // accumulator read operand, nil when inactive
	fresh := false           // outBlk was allocated by this event and is still zero

	// buffered returns the block an earlier event of id's hold interval
	// left in the shared buffer (its pins stay with the interval); ok
	// reports whether there was such an event.
	buffered := func(id prog.BlockID) (b block, ok bool) {
		if iv, covered := cover[id]; !covered || i == iv.iv.Start {
			return block{}, false
		}
		rs.mu.Lock()
		defer rs.mu.Unlock()
		b = rs.buf[id]
		b.pins = 0
		return b, true
	}

	for bi := range set {
		ba := &set[bi]
		mine := local[ba.Block]
		if mine == nil {
			mine = &block{id: ba.Block}
			local[ba.Block] = mine
		}
		if ba.Type == prog.Read {
			b := *mine // an earlier access of this event, if any
			switch ba.Action {
			case codegen.FromMemory:
				if held, _ := buffered(ba.Block); held.m != nil {
					b = held
				}
				if b.m == nil {
					return fmt.Errorf("exec: %s%v expects %s in memory but it is not buffered",
						ev.St.Name, ev.X, ba.Block)
				}
			case codegen.DoIO:
				if mine.pins > 0 {
					break // this event acquired the block already: one read per instance
				}
				m, err := rs.readBlock(i, ba)
				if err != nil {
					return err
				}
				mine.pins++
				b = block{m: m, borrowed: true}
			}
			if mine.m == nil {
				mine.m, mine.borrowed = b.m, b.borrowed
			}
			if isAccumulatorRead(ev.St, ba.Acc) {
				accRead = b.m
			} else {
				kernelIn = append(kernelIn, b.m)
			}
			continue
		}
		// Write access: the output block materializes in memory.
		writeBA = ba
		arr := tl.Prog.Arrays[ba.Block.Array]
		out, held := buffered(ba.Block)
		switch {
		case held && out.m == nil:
			return fmt.Errorf("exec: %s%v writes held block %s but it is not buffered",
				ev.St.Name, ev.X, ba.Block)
		case !held, out.borrowed && out.m == accRead:
			// A new block — also for the copy-on-write of a held block
			// that is the accumulator's prior value: the kernel copies
			// accRead in, so the copy need not.
			out, fresh = block{m: blas.NewMatrix(arr.BlockRows, arr.BlockCols)}, true
		case out.borrowed:
			// Copy-on-write: the hold interval began with a borrowed read
			// and is now written in place.
			out = block{m: out.m.Clone()}
		}
		outBlk = out.m
		mine.m, mine.borrowed = out.m, out.borrowed
	}

	// Run the kernel on real data.
	t0 := time.Now()
	if err := rs.kernels[ev.St.ID].run(kernelIn, accRead, outBlk, fresh); err != nil {
		return fmt.Errorf("exec: %s%v: %w", ev.St.Name, ev.X, err)
	}
	kd := time.Since(t0)
	rs.kernelMu.Lock()
	if rs.stageTimes == nil {
		rs.stageTimes = make(map[string]time.Duration)
	}
	rs.stageTimes[ev.St.Name] += kd
	rs.cpuTime += kd
	rs.kernelMu.Unlock()

	// Write-back.
	if writeBA != nil && writeBA.Action == codegen.DoIO {
		w := writeBA.Block
		if err := rs.pool.Put(w.Array, w.R, w.C, outBlk); err != nil {
			return err
		}
		local[w].pins++
	}

	// Retain blocks whose hold interval extends past this event, adding
	// this event's pins to the interval's; drop a block when its
	// interval's last accessor completes.
	rs.mu.Lock()
	for id, iv := range cover {
		if i < iv.iv.End {
			b := *local[id]
			b.pins += rs.buf[id].pins
			rs.buf[id] = b
			delete(local, id)
		}
		if iv.refs--; iv.refs == 0 {
			rs.drop(rs.buf[id])
			delete(rs.buf, id)
		}
	}
	rs.mu.Unlock()

	// Announce blocks whose final physical write was this event. Every
	// earlier write of the block is ordered before it (timeline order, or
	// the DAG's WAW and dataflow edges), so the value observed through
	// Pool/Store from here on is final.
	if rs.finalize != nil {
		for _, id := range rs.finalize[i] {
			rs.e.OnBlockWritten(id.Array, id.R, id.C)
		}
	}
	return nil
}

// finalWrites maps each event index to the blocks whose final write the
// event performs and persists (the last write access of the block across
// the whole timeline, with action DoIO — through the pool that is a
// deferred dirty install, directly it is the disk write itself). After
// such an event completes, the block's value is final and readable;
// execEvent drives Engine.OnBlockWritten off these lists. Blocks whose
// last write stays memory-only are omitted.
func finalWrites(sets [][]codegen.BlockAccess) [][]prog.BlockID {
	type lastWrite struct {
		event int
		doIO  bool
	}
	last := make(map[prog.BlockID]lastWrite)
	for i, set := range sets {
		for _, ba := range set {
			if ba.Type == prog.Write {
				last[ba.Block] = lastWrite{event: i, doIO: ba.Action == codegen.DoIO}
			}
		}
	}
	out := make([][]prog.BlockID, len(sets))
	for id, lw := range last {
		if lw.doIO {
			out[lw.event] = append(out[lw.event], id)
		}
	}
	return out
}

// countdown is one transient block's count of accesses by events that have
// not completed yet.
type countdown struct {
	id   prog.BlockID
	left atomic.Int32
}

// transientTouches maps each event index to its accesses of transient blocks,
// sharing one countdown per block that starts at the number of such accesses;
// an event touching a block twice is listed, and counts down, twice.
func transientTouches(p *prog.Program, sets [][]codegen.BlockAccess) [][]*countdown {
	byID := make(map[prog.BlockID]*countdown)
	out := make([][]*countdown, len(sets))
	for i, set := range sets {
		for _, ba := range set {
			if arr := p.Arrays[ba.Block.Array]; arr == nil || !arr.Transient {
				continue
			}
			cd := byID[ba.Block]
			if cd == nil {
				cd = &countdown{id: ba.Block}
				byID[ba.Block] = cd
			}
			out[i] = append(out[i], cd)
			cd.left.Add(1)
		}
	}
	return out
}

// countDown retires completed event i's accesses from the countdown of every
// transient block it touched and announces each block no remaining event
// touches.
func (rs *runState) countDown(i int) {
	for _, cd := range rs.dying[i] {
		if cd.left.Add(-1) == 0 {
			rs.e.OnBlockDead(cd.id.Array, cd.id.R, cd.id.C)
		}
	}
}

// isAccumulatorRead reports whether access ai is a read of the same array
// the statement writes (the "+=" self-operand).
func isAccumulatorRead(st *prog.Statement, ai int) bool {
	ac := &st.Accesses[ai]
	if ac.Type != prog.Read {
		return false
	}
	w := st.WriteAccess()
	return w != nil && w.Array == ac.Array
}
