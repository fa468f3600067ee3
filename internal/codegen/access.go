package codegen

import (
	"cmp"
	"slices"
	"strings"

	"riotshare/internal/prog"
)

// BlockAccess is one block touched by one event, resolved to concrete
// block coordinates under the timeline's parameter binding. It is the unit
// the execution engine reasons about: dependence edges between events are
// derived from intersecting read/write block sets, and the prefetcher walks
// the DoIO reads ahead of execution.
type BlockAccess struct {
	// Acc indexes Events[i].St.Accesses.
	Acc    int
	Block  prog.BlockID
	Type   prog.AccessType
	Action AccessAction
}

// AccessSets resolves every event's active accesses to concrete blocks.
// Inactive accesses (false guards) are omitted; the slice for event i
// preserves the statement's access order, which kernels depend on. All
// sets share one backing array, each capped at its own end.
func (tl *Timeline) AccessSets() [][]BlockAccess {
	n := 0
	for _, ev := range tl.Events {
		n += len(ev.St.Accesses)
	}
	all := make([]BlockAccess, 0, n)
	sets := make([][]BlockAccess, len(tl.Events))
	for i := range tl.Events {
		start := len(all)
		all = tl.appendAccesses(all, i)
		sets[i] = all[start:len(all):len(all)]
	}
	return sets
}

// appendAccesses appends event i's active accesses to dst, in access order.
func (tl *Timeline) appendAccesses(dst []BlockAccess, i int) []BlockAccess {
	ev := tl.Events[i]
	for ai := range ev.St.Accesses {
		action := tl.Actions[i][ai]
		if action == Inactive {
			continue
		}
		ac := &ev.St.Accesses[ai]
		r, c := ac.BlockAt(ev.X, tl.Params)
		dst = append(dst, BlockAccess{Acc: ai, Block: prog.BlockID{Array: ac.Array, R: r, C: c}, Type: ac.Type, Action: action})
	}
	return dst
}

// HoldInterval is a maximal span of events during which one block stays
// buffered: the block enters the buffer when the event at Start completes
// and leaves it after the event at End completes, so events in (Start, End]
// observe it as memory-resident.
type HoldInterval struct {
	Block prog.BlockID
	Start int // event index that buffers the block
	End   int // last event index through which it stays buffered
}

// HoldIntervals merges the timeline's holds per block into maximal
// intervals: a hold starting at or before the current merged end extends
// it (Start2 <= End1 chains them, because the block is still buffered when
// the event at End1 runs), while a later hold opens a new interval.
// Intervals are returned sorted by block (array, row, column) and Start.
func (tl *Timeline) HoldIntervals() []HoldInterval {
	holds := slices.Clone(tl.Holds)
	slices.SortFunc(holds, func(x, y Hold) int {
		a, b := x.Block, y.Block
		return cmp.Or(strings.Compare(a.Array, b.Array), cmp.Compare(a.R, b.R), cmp.Compare(a.C, b.C),
			cmp.Compare(x.StartEvent, y.StartEvent))
	})
	var out []HoldInterval
	for _, h := range holds {
		if n := len(out); n > 0 {
			if cur := &out[n-1]; cur.Block == h.Block && h.StartEvent <= cur.End {
				cur.End = max(cur.End, h.EndEvent)
				continue
			}
		}
		out = append(out, HoldInterval{Block: h.Block, Start: h.StartEvent, End: h.EndEvent})
	}
	return out
}

// Accounting is the logical I/O and memory of a timeline: what the plan
// reads, writes and keeps buffered, in paper-scale bytes
// (prog.Array.LogicalBlockBytes). The cost model prices it and the
// execution engine reports it; both take it from Timeline.Account.
type Accounting struct {
	ReadBytes, WriteBytes int64
	ReadReqs, WriteReqs   int64
	// PeakMemoryBytes is the maximum over events of the buffered working
	// set: the blocks the running event accesses plus the blocks held for
	// reuse, not the physical bytes a buffer.Pool's capacity counts.
	PeakMemoryBytes int64
	// PerArray breaks the I/O volumes down by array.
	PerArray map[string]ArrayIO
}

// ArrayIO is one array's share of an Accounting's I/O volumes.
type ArrayIO struct {
	ReadBytes, WriteBytes int64
}

// Account sums the timeline's logical I/O and peak working set in one
// sweep of its events. It is the one statement of the plan's accounting
// rule:
//
//   - Every DoIO write is one write request of one block. Every DoIO read
//     is one read request, except that a block one event reads twice is
//     read once: the executor acquires it for the first access and serves
//     the second from the same block.
//   - Event i's working set is the distinct blocks it accesses under any
//     action but Inactive, plus the block of every hold interval with
//     Start <= i <= End. The peak is the largest working set.
//
// sets, when non-nil, is the timeline's AccessSets; a nil sets resolves
// each event's accesses on the fly into one reused buffer.
func (tl *Timeline) Account(sets [][]BlockAccess) Accounting {
	arrays := tl.Prog.Arrays
	acct := Accounting{PerArray: make(map[string]ArrayIO)}

	// Hold intervals in start order; heldUntil maps a block to the End of
	// its latest started interval (intervals of one block are disjoint), and
	// release[i] is what leaves the buffer after event i.
	ivs := tl.HoldIntervals()
	slices.SortFunc(ivs, func(x, y HoldInterval) int { return cmp.Compare(x.Start, y.Start) })
	heldUntil := make(map[prog.BlockID]int, len(ivs))
	release := make([]int64, len(tl.Events))
	held := int64(0)
	next := 0

	var scratch []BlockAccess
	type touched struct {
		id   prog.BlockID
		read bool // read from disk by this event already
	}
	var local []touched
	for i := range tl.Events {
		for ; next < len(ivs) && ivs[next].Start <= i; next++ {
			iv := &ivs[next]
			b := arrays[iv.Block.Array].LogicalBlockBytes
			heldUntil[iv.Block] = iv.End
			held += b
			release[iv.End] += b
		}
		var set []BlockAccess
		if sets != nil {
			set = sets[i]
		} else {
			scratch = tl.appendAccesses(scratch[:0], i)
			set = scratch
		}

		mem := held
		local = local[:0]
		for _, ba := range set {
			b := arrays[ba.Block.Array].LogicalBlockBytes
			j := slices.IndexFunc(local, func(t touched) bool { return t.id == ba.Block })
			if j < 0 {
				j = len(local)
				local = append(local, touched{id: ba.Block})
				if end, ok := heldUntil[ba.Block]; !ok || end < i {
					mem += b
				}
			}
			if ba.Action != DoIO || (ba.Type == prog.Read && local[j].read) {
				continue
			}
			pa := acct.PerArray[ba.Block.Array]
			if ba.Type == prog.Read {
				local[j].read = true
				acct.ReadBytes += b
				acct.ReadReqs++
				pa.ReadBytes += b
			} else {
				acct.WriteBytes += b
				acct.WriteReqs++
				pa.WriteBytes += b
			}
			acct.PerArray[ba.Block.Array] = pa
		}
		acct.PeakMemoryBytes = max(acct.PeakMemoryBytes, mem)
		held -= release[i]
	}
	return acct
}
