// pipeline.go is the DAG schedule of the interpreter in exec.go. The
// timeline stays the single source of truth: a dependence graph over its
// events — derived from per-event block access sets (memory dataflow inside
// hold intervals, RAW/WAR/WAW on disk state) — lets independent events run
// execEvent on a worker pool while an asynchronous prefetcher walks the
// timeline ahead of execution and issues block reads early.
//
// Two invariants make this schedule a validation of the paper rather than a
// departure from it:
//
//  1. Logical I/O accounting is byte-for-byte equal to the cost model's
//     prediction regardless of worker count: Result comes from the
//     timeline's accounting (codegen.Timeline.Account), which never sees
//     the schedule, and the physical run only carries the plan out.
//  2. Numerics are bit-identical to the in-order schedule. Every kernel
//     consumes the same operand values in the same order: accumulator
//     chains are serialized by write-write edges, shared buffers by
//     producer→consumer edges, so floating-point summation order never
//     changes.
//
// PeakMemoryBytes therefore reports the plan's logical working-set peak
// (what the optimizer bounded with the memory cap, §4.2). The physical
// resident set of a DAG-scheduled run can transiently exceed it by the
// worker pool's per-event operand blocks plus the blocks the prefetch walk
// has pinned; the prefetcher's read-ahead is bounded by the cap's spare
// headroom (cap − logical peak) and never issues a read past an unexecuted
// write of the same block.
package exec

import (
	"fmt"
	"sync"

	"riotshare/internal/blas"
	"riotshare/internal/codegen"
	"riotshare/internal/prog"
)

// pipeline is what the DAG schedule adds to the interpreter's access sets
// and hold coverage: the event dependence DAG and the prefetch walk.
type pipeline struct {
	succs [][]int
	indeg []int32
	// prefetch is the ordered walk of coalesced prefetchable reads;
	// consumers counts the events each entry must serve.
	prefetch  []prog.BlockID
	consumers map[prog.BlockID]int
	maxBlock  int64 // largest prefetchable block, for the byte budget
	// firstDiskWrite[id] is the earliest event writing the block to disk;
	// reads at later events are not part of the prefetch walk.
	firstDiskWrite map[prog.BlockID]int
}

// buildPipeline derives the dependence DAG from the timeline's block
// access sets and merged hold intervals (sorted by block and start). Three
// edge families preserve timeline-order semantics:
//
//   - memory dataflow inside each merged hold interval: the interval's
//     start event produces the buffered block; readers depend on the
//     latest producer, writers on the latest producer plus every reader
//     since (so in-place accumulation never races a consumer);
//   - buffer-slot reuse between consecutive intervals of the same block:
//     the next interval's start waits for every accessor of the previous
//     one, so release precedes re-insertion;
//   - disk state per block: DoIO write → later DoIO reads (RAW), DoIO
//     reads → next DoIO write (WAR), DoIO write → DoIO write (WAW).
//
// All edges point forward in timeline order, so the graph is a DAG.
func buildPipeline(tl *codegen.Timeline, sets [][]codegen.BlockAccess, intervals []*ivState) (*pipeline, error) {
	n := len(sets)
	pp := &pipeline{
		succs:     make([][]int, n),
		indeg:     make([]int32, n),
		consumers: make(map[prog.BlockID]int),
	}
	seen := make(map[int64]bool)
	addEdge := func(from, to int) error {
		if from == to {
			return nil // intra-event ordering is program order
		}
		if from > to {
			return fmt.Errorf("exec: dependence edge %d->%d runs against the timeline", from, to)
		}
		id := int64(from)<<32 | int64(to)
		if seen[id] {
			return nil
		}
		seen[id] = true
		pp.succs[from] = append(pp.succs[from], to)
		pp.indeg[to]++
		return nil
	}

	// Memory dataflow within and between hold intervals.
	var prev *ivState
	for _, st := range intervals {
		producer := st.iv.Start
		var readers []int
		for _, i := range st.accessors[1:] {
			if err := addEdge(producer, i); err != nil {
				return nil, err
			}
			if _, w := touch(sets[i], st.iv.Block); !w {
				readers = append(readers, i)
				continue
			}
			for _, r := range readers {
				if err := addEdge(r, i); err != nil {
					return nil, err
				}
			}
			producer, readers = i, readers[:0]
		}

		// Buffer-slot reuse: the previous interval of this block must fully
		// release before the next one buffers.
		if prev != nil && prev.iv.Block == st.iv.Block {
			for _, a := range prev.accessors {
				if err := addEdge(a, st.iv.Start); err != nil {
					return nil, err
				}
			}
		}
		prev = st
	}

	// Disk-state dependences per block over DoIO actions.
	type diskAcc struct {
		event       int
		read, write bool
	}
	diskByBlock := make(map[prog.BlockID][]diskAcc)
	for i, set := range sets {
		for _, ba := range set {
			if ba.Action != codegen.DoIO {
				continue
			}
			accs := diskByBlock[ba.Block]
			if len(accs) > 0 && accs[len(accs)-1].event == i {
				if ba.Type == prog.Read {
					accs[len(accs)-1].read = true
				} else {
					accs[len(accs)-1].write = true
				}
			} else {
				accs = append(accs, diskAcc{event: i, read: ba.Type == prog.Read, write: ba.Type == prog.Write})
			}
			diskByBlock[ba.Block] = accs
		}
	}
	firstDiskWrite := make(map[prog.BlockID]int)
	pp.firstDiskWrite = firstDiskWrite
	for id, accs := range diskByBlock {
		lastWriter := -1
		var readersSince []int
		for _, a := range accs {
			if a.read || a.write {
				if lastWriter >= 0 {
					if err := addEdge(lastWriter, a.event); err != nil {
						return nil, err
					}
				}
			}
			if a.write {
				for _, r := range readersSince {
					if err := addEdge(r, a.event); err != nil {
						return nil, err
					}
				}
				lastWriter, readersSince = a.event, readersSince[:0]
				if _, ok := firstDiskWrite[id]; !ok {
					firstDiskWrite[id] = a.event
				}
			}
			if a.read {
				readersSince = append(readersSince, a.event)
			}
		}
	}

	// Prefetch walk: a DoIO read is prefetchable when no earlier event
	// writes the block to disk — then all prefetchable reads of one block
	// see identical disk state and can share a single early read. Reads
	// past a disk write are left to the executor, whose RAW edge orders
	// them.
	for i, set := range sets {
		for j, ba := range set {
			if !firstRead(set, j) {
				continue
			}
			if w, ok := firstDiskWrite[ba.Block]; ok && w < i {
				continue
			}
			if pp.consumers[ba.Block]++; pp.consumers[ba.Block] == 1 {
				pp.prefetch = append(pp.prefetch, ba.Block)
				if b := tl.Prog.Arrays[ba.Block.Array].LogicalBlockBytes; b > pp.maxBlock {
					pp.maxBlock = b
				}
			}
		}
	}
	return pp, nil
}

// firstRead reports whether set[j] is the first DoIO read of its block in
// the event: execEvent reads a block once per event (Timeline.Account's
// rule), so only that access consumes a prefetch entry.
func firstRead(set []codegen.BlockAccess, j int) bool {
	isRead := func(ba codegen.BlockAccess) bool { return ba.Type == prog.Read && ba.Action == codegen.DoIO }
	if !isRead(set[j]) {
		return false
	}
	for _, ba := range set[:j] {
		if ba.Block == set[j].Block && isRead(ba) {
			return false
		}
	}
	return true
}

// pfEntry is one block of the prefetch walk while it still has consumers.
// It holds no block, only window occupancy. Whoever reaches the entry first
// marks it issued and acquires the block for the window (pinEntry): the
// prefetcher, ahead of execution and against a window slot, or a consumer.
// That one pin keeps the block in the pool until the last consumer retires
// it; every consumer acquires the block from the pool itself, once done
// closes.
type pfEntry struct {
	refs   int32 // consumers remaining
	issued bool
	slot   bool // the prefetcher issued it and holds a window slot
	pinned bool // the window holds one pin on the block; final once done closes
	done   chan struct{}
}

// pinEntry acquires en's block for the window. An error is left for the
// consumers' own Acquire to surface, or to survive.
func (rs *runState) pinEntry(en *pfEntry, id prog.BlockID) {
	_, err := rs.pool.Acquire(id.Array, id.R, id.C)
	en.pinned = err == nil
	close(en.done)
}

func (rs *runState) fail(err error) {
	rs.once.Do(func() {
		rs.failErr = err
		close(rs.cancel)
	})
}

// runDAG drives execEvent over the dependence DAG on opt.Workers workers,
// with I/O prefetch into the memory cap's headroom above peakBytes.
func (rs *runState) runDAG(intervals []*ivState, opt Options, peakBytes int64) error {
	pp, err := buildPipeline(rs.tl, rs.sets, intervals)
	if err != nil {
		return err
	}

	depth := 2 * opt.Workers
	if memCap := rs.e.MemCapBytes; memCap > 0 && pp.maxBlock > 0 {
		// Prefetch only into the cap's headroom above the plan's peak.
		if spare := int((memCap - peakBytes) / pp.maxBlock); spare < depth {
			depth = spare
		}
	}
	if depth < 0 {
		depth = 0
	}

	rs.pp = pp
	rs.slots = make(chan struct{}, max(depth, 1))
	rs.cancel = make(chan struct{})
	window := make(map[prog.BlockID]*pfEntry, len(pp.prefetch))
	for _, id := range pp.prefetch {
		window[id] = &pfEntry{refs: int32(pp.consumers[id]), done: make(chan struct{})}
	}
	rs.winMu.Lock()
	rs.window = window
	rs.winMu.Unlock()
	if depth > 0 {
		rs.pfWG.Add(1)
		go rs.prefetcher()
	}

	n := len(rs.sets)
	ready := make(chan int, n)
	remaining := n
	for i := 0; i < n; i++ {
		if pp.indeg[i] == 0 {
			ready <- i
		}
	}
	if n == 0 {
		close(ready)
	}

	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-rs.cancel:
					return
				case i, ok := <-ready:
					if !ok {
						return
					}
					if err := rs.execEvent(i); err != nil {
						rs.fail(err)
						return
					}
					rs.mu.Lock()
					for _, s := range pp.succs[i] {
						if pp.indeg[s]--; pp.indeg[s] == 0 {
							ready <- s
						}
					}
					if remaining--; remaining == 0 {
						close(ready)
					}
					rs.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	rs.fail(nil)   // release the prefetcher if it is still walking
	rs.pfWG.Wait() // join prefetch reads so none outlives the run
	// A failed run leaves entries unconsumed: release the window's pins.
	rs.winMu.Lock()
	for _, id := range pp.prefetch {
		if en := rs.window[id]; en != nil && en.pinned {
			rs.pool.Unpin(id.Array, id.R, id.C, 1)
		}
	}
	rs.winMu.Unlock()
	return rs.failErr
}

// prefetcher walks the timeline's prefetchable reads in first-use order,
// pinning each one asynchronously while window slots are available. An
// entry a consumer already reached is skipped.
func (rs *runState) prefetcher() {
	defer rs.pfWG.Done()
	for _, id := range rs.pp.prefetch {
		select {
		case <-rs.cancel:
			return
		case rs.slots <- struct{}{}:
		}
		rs.winMu.Lock()
		en := rs.window[id]
		if en == nil || en.issued {
			// Fully consumed (entry retired) or claimed inline already.
			rs.winMu.Unlock()
			<-rs.slots
			continue
		}
		en.issued = true
		en.slot = true
		rs.winMu.Unlock()
		rs.pfIssued.Add(1)
		rs.pfWG.Add(1)
		go func() {
			defer rs.pfWG.Done()
			rs.pinEntry(en, id)
		}()
	}
}

// readBlock serves one DoIO read at event i by acquiring the block from the
// pool; the caller owns the pin. Under the DAG schedule a read of the
// prefetch walk (no earlier event writes the block to disk) also consumes
// its window entry: a consumer that reaches the entry before the prefetcher
// pins it for the window first, every consumer waits for the window's pin
// before acquiring, and the last consumer releases the window's pin and
// slot. Every consumer's pin thus overlaps the window's, so a pool that keeps
// only pinned blocks still reads the block once.
func (rs *runState) readBlock(i int, ba *codegen.BlockAccess) (*blas.Matrix, error) {
	var en *pfEntry
	if rs.pp != nil {
		if w, written := rs.pp.firstDiskWrite[ba.Block]; !written || w >= i {
			rs.winMu.Lock()
			en = rs.window[ba.Block]
			claim := !en.issued
			en.issued = true
			rs.winMu.Unlock()
			if claim {
				rs.pfInline.Add(1)
				rs.pinEntry(en, ba.Block)
			}
			<-en.done
		}
	}
	id := ba.Block
	m, err := rs.pool.Acquire(id.Array, id.R, id.C)
	if err != nil || en == nil {
		return m, err
	}
	rs.winMu.Lock()
	en.refs--
	last := en.refs == 0
	if last {
		delete(rs.window, id)
	}
	rs.winMu.Unlock()
	if last {
		if en.pinned {
			rs.pool.Unpin(id.Array, id.R, id.C, 1)
		}
		if en.slot {
			<-rs.slots
		}
	}
	return m, nil
}
