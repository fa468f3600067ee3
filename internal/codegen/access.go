package codegen

import (
	"sort"

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
	Array  string
	R, C   int64
	Key    string
	Type   prog.AccessType
	Action AccessAction
}

// AccessSets resolves every event's active accesses to concrete blocks.
// Inactive accesses (false guards) are omitted; the slice for event i
// preserves the statement's access order, which kernels depend on.
func (tl *Timeline) AccessSets() [][]BlockAccess {
	sets := make([][]BlockAccess, len(tl.Events))
	for i, ev := range tl.Events {
		for ai := range ev.St.Accesses {
			action := tl.Actions[i][ai]
			if action == Inactive {
				continue
			}
			ac := &ev.St.Accesses[ai]
			r, c := ac.BlockAt(ev.X, tl.Params)
			sets[i] = append(sets[i], BlockAccess{
				Acc: ai, Array: ac.Array, R: r, C: c,
				Key: blockKey(ac.Array, r, c), Type: ac.Type, Action: action,
			})
		}
	}
	return sets
}

// HoldInterval is a maximal span of events during which one block stays
// buffered. It is the static form of the execution engine's hold
// bookkeeping (exec.accountRun): the block enters the buffer when the event
// at Start completes and leaves it after the event at End completes, so
// events in (Start, End] observe it as memory-resident.
type HoldInterval struct {
	Array string
	R, C  int64
	Key   string
	Start int // event index that buffers the block
	End   int // last event index through which it stays buffered
}

// HoldIntervals merges the timeline's holds per block into maximal
// intervals under the same rule as exec.accountRun: a hold activating at
// or before the current merged end extends it (activation happens at the
// top of its start event, expiry at the bottom of the end event, so
// Start2 <= End1 chains them), while a later hold opens a new interval.
// Intervals are returned sorted by (Key, Start).
func (tl *Timeline) HoldIntervals() []HoldInterval {
	byKey := make(map[string][]Hold)
	for _, h := range tl.Holds {
		byKey[blockKey(h.Array, h.R, h.C)] = append(byKey[blockKey(h.Array, h.R, h.C)], h)
	}
	var out []HoldInterval
	for key, holds := range byKey {
		sort.Slice(holds, func(i, j int) bool {
			if holds[i].StartEvent != holds[j].StartEvent {
				return holds[i].StartEvent < holds[j].StartEvent
			}
			return holds[i].EndEvent < holds[j].EndEvent
		})
		cur := HoldInterval{Array: holds[0].Array, R: holds[0].R, C: holds[0].C,
			Key: key, Start: holds[0].StartEvent, End: holds[0].EndEvent}
		for _, h := range holds[1:] {
			if h.StartEvent <= cur.End {
				if h.EndEvent > cur.End {
					cur.End = h.EndEvent
				}
				continue
			}
			out = append(out, cur)
			cur = HoldInterval{Array: h.Array, R: h.R, C: h.C,
				Key: key, Start: h.StartEvent, End: h.EndEvent}
		}
		out = append(out, cur)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Start < out[j].Start
	})
	return out
}
