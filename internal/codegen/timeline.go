// Package codegen lowers an optimized schedule plus its realized
// sharing-opportunity set into an executable plan (§5.5). Instead of
// emitting C through CLooG, it produces (a) the exact lexicographic
// execution order of statement instances and (b) per-access I/O actions
// (read from disk, serve from memory, elide the write), which the execution
// engine interprets and Timeline.Account sums. A schedule alone does not
// dictate I/O sharing (§5.3's footnote); the actions injected here realize
// exactly the plan's opportunity set Q.
package codegen

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"riotshare/internal/deps"
	"riotshare/internal/prog"
	"riotshare/internal/sched"
)

// AccessAction says how one access of one statement instance is serviced.
type AccessAction uint8

const (
	// DoIO performs a physical block read or write.
	DoIO AccessAction = iota
	// FromMemory serves a read from the buffered block (a realized W→R or
	// R→R sharing).
	FromMemory
	// Elided skips a write entirely (a realized W→W sharing, or a dead
	// write to a transient array that is never read back from disk —
	// footnote 8's "decide if C needs to be written to disk").
	Elided
	// Inactive marks an access whose guard is false at this instance (e.g.
	// the accumulator read at k=0).
	Inactive
)

// Event is one scheduled statement instance.
type Event struct {
	St   *prog.Statement
	X    []int64
	Time []int64
}

// Hold records that a block must stay buffered from one event to another to
// realize sharing (it defines the plan's extra memory requirement, §5.4).
type Hold struct {
	Block      prog.BlockID
	StartEvent int // index into Timeline.Events
	EndEvent   int
}

// Timeline is the fully lowered, executable plan.
type Timeline struct {
	Prog   *prog.Program
	Params []int64
	Events []Event
	// Actions[eventIdx][accessIdx] parallels Events[i].St.Accesses.
	Actions [][]AccessAction
	Holds   []Hold
}

// Lower builds the timeline for a plan under the program's parameter
// binding. It fails if the schedule maps two instances to the same time
// (injectivity violation) or if an alleged sharing pair is not actually
// scheduled for reuse.
func Lower(an *deps.Analysis, plan sched.Plan) (*Timeline, error) {
	p := an.Prog
	params := p.ParamValues()
	tl := &Timeline{Prog: p, Params: params}
	insts, err := an.Instances()
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	// Events by instance ordinal, then in time order: at maps an ordinal
	// to its event's index.
	byOrd := make([]Event, 0, insts.N)
	for _, st := range p.Stmts {
		for _, x := range insts.Of[st.ID] {
			byOrd = append(byOrd, Event{St: st, X: x, Time: plan.Schedule.TimeOf(st, x, params)})
		}
	}
	order := make([]int32, len(byOrd))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return prog.LexCompare(byOrd[a].Time, byOrd[b].Time) })
	tl.Events = make([]Event, len(byOrd))
	at := make([]int32, len(byOrd))
	for i, o := range order {
		tl.Events[i], at[o] = byOrd[o], int32(i)
	}
	event := func(st *prog.Statement, x []int64) (int, bool) {
		o, ok := insts.Ordinal(st.ID, x)
		if !ok {
			return 0, false
		}
		return int(at[o]), true
	}
	// Injectivity: neighbouring equal times are an error.
	for i := 1; i < len(tl.Events); i++ {
		if prog.LexCompare(tl.Events[i-1].Time, tl.Events[i].Time) == 0 {
			return nil, fmt.Errorf("codegen: schedule is not injective: %s%v and %s%v share time %v",
				tl.Events[i-1].St.Name, tl.Events[i-1].X, tl.Events[i].St.Name, tl.Events[i].X, tl.Events[i].Time)
		}
	}
	// Default actions.
	tl.Actions = make([][]AccessAction, len(tl.Events))
	for i, ev := range tl.Events {
		tl.Actions[i] = make([]AccessAction, len(ev.St.Accesses))
		for ai := range ev.St.Accesses {
			if !ev.St.Accesses[ai].Guarded(ev.X, params) {
				tl.Actions[i][ai] = Inactive
			}
		}
	}
	// Apply the realized sharing opportunities: reads first (W→R, R→R),
	// then write elisions (W→W), which must see the final read actions — a
	// first write may only be skipped if no read between the two writes is
	// served from disk (otherwise that read would observe a stale block;
	// the elision is unrealizable for such a pair and contributes no
	// saving).
	type wwPair struct {
		c      *deps.CoAccess
		pr     [2][]int64
		si, ti int
	}
	var wws []wwPair
	for _, c := range plan.ShareSet(an) {
		pairs, err := c.ConcretePairs()
		if err != nil {
			return nil, fmt.Errorf("codegen: pairs of %s: %w", c, err)
		}
		for _, pr := range pairs {
			si, ok1 := event(c.Src, pr[0])
			ti, ok2 := event(c.Tgt, pr[1])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("codegen: share %s references unknown instance", c)
			}
			switch c.Kind() {
			case deps.WR:
				if ti < si {
					return nil, fmt.Errorf("codegen: W→R share %s scheduled backwards", c)
				}
				tl.Actions[ti][c.TgtAcc] = FromMemory
				tl.addHold(c, pr, si, ti)
			case deps.RR:
				// Either order may execute first under the new schedule; the
				// second access is served from memory.
				first, second, secondAcc := si, ti, c.TgtAcc
				if ti < si {
					first, second, secondAcc = ti, si, c.SrcAcc
				}
				tl.Actions[second][secondAcc] = FromMemory
				tl.addHold(c, pr, first, second)
			case deps.WW:
				if ti < si {
					return nil, fmt.Errorf("codegen: W→W share %s scheduled backwards", c)
				}
				wws = append(wws, wwPair{c: c, pr: pr, si: si, ti: ti})
			}
		}
	}
	for _, ww := range wws {
		r, col := ww.c.SrcAccess().BlockAt(ww.pr[0], params)
		if tl.diskReadBetween(prog.BlockID{Array: ww.c.Array(), R: r, C: col}, ww.si, ww.ti) {
			continue // unrealizable pair; keep the write
		}
		tl.Actions[ww.si][ww.c.SrcAcc] = Elided
	}
	tl.elideDeadTransientWrites()
	return tl, nil
}

// diskReadBetween reports whether any read of the block in events
// (si, ti] is served from disk (reads at event ti occur before its write,
// so they are included).
func (tl *Timeline) diskReadBetween(id prog.BlockID, si, ti int) bool {
	for i := si + 1; i <= ti; i++ {
		ev := tl.Events[i]
		for ai, ac := range ev.St.Accesses {
			if ac.Type != prog.Read || tl.Actions[i][ai] != DoIO {
				continue
			}
			if r, c := ac.BlockAt(ev.X, tl.Params); (prog.BlockID{Array: ac.Array, R: r, C: c}) == id {
				return true
			}
		}
	}
	return false
}

// addHold records the buffering interval for the shared block.
func (tl *Timeline) addHold(c *deps.CoAccess, pr [2][]int64, startEv, endEv int) {
	r, col := c.SrcAccess().BlockAt(pr[0], tl.Params)
	tl.Holds = append(tl.Holds, Hold{
		Block:      prog.BlockID{Array: c.Array(), R: r, C: col},
		StartEvent: startEv, EndEvent: endEv,
	})
}

// elideDeadTransientWrites implements footnote 8: a write to a transient
// (intermediate) array whose block is never read from disk afterwards need
// not be written at all. Accumulator chains are handled too: only writes
// with no later disk read of the same block are elided.
func (tl *Timeline) elideDeadTransientWrites() {
	// lastDiskRead[block] = last event index reading the block with DoIO.
	lastDiskRead := make(map[prog.BlockID]int)
	for i, ev := range tl.Events {
		for ai, ac := range ev.St.Accesses {
			if ac.Type == prog.Read && tl.Actions[i][ai] == DoIO {
				r, c := ac.BlockAt(ev.X, tl.Params)
				lastDiskRead[prog.BlockID{Array: ac.Array, R: r, C: c}] = i
			}
		}
	}
	for i, ev := range tl.Events {
		for ai, ac := range ev.St.Accesses {
			if ac.Type != prog.Write || tl.Actions[i][ai] != DoIO {
				continue
			}
			arr := tl.Prog.Arrays[ac.Array]
			if arr == nil || !arr.Transient {
				continue
			}
			r, c := ac.BlockAt(ev.X, tl.Params)
			if last, ok := lastDiskRead[prog.BlockID{Array: ac.Array, R: r, C: c}]; !ok || last <= i {
				tl.Actions[i][ai] = Elided
			}
		}
	}
}

// Diff describes the first difference between two lowered plans of
// separately built copies of one program: statement, instance and time
// of each event, the block and I/O action of each access, and every hold
// interval. It returns "" when they agree.
func Diff(a, b *Timeline) string {
	if a.Prog.Name != b.Prog.Name || !reflect.DeepEqual(a.Params, b.Params) {
		return fmt.Sprintf("program %s%v vs %s%v", a.Prog.Name, a.Params, b.Prog.Name, b.Params)
	}
	if len(a.Events) != len(b.Events) {
		return fmt.Sprintf("%d events vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.St.Name != eb.St.Name || !reflect.DeepEqual(ea.X, eb.X) || !reflect.DeepEqual(ea.Time, eb.Time) {
			return fmt.Sprintf("event %d: %s%v@%v vs %s%v@%v", i, ea.St.Name, ea.X, ea.Time, eb.St.Name, eb.X, eb.Time)
		}
		if len(ea.St.Accesses) != len(eb.St.Accesses) || !reflect.DeepEqual(a.Actions[i], b.Actions[i]) {
			return fmt.Sprintf("event %d: actions %v vs %v", i, a.Actions[i], b.Actions[i])
		}
		for j, ac := range ea.St.Accesses {
			bc := eb.St.Accesses[j]
			ra, ca := ac.BlockAt(ea.X, a.Params)
			rb, cb := bc.BlockAt(eb.X, b.Params)
			if ac.Type != bc.Type || ac.Array != bc.Array || ra != rb || ca != cb {
				return fmt.Sprintf("event %d access %d: %s %s[%d,%d] vs %s %s[%d,%d]", i, j, ac.Type, ac.Array, ra, ca, bc.Type, bc.Array, rb, cb)
			}
		}
	}
	if len(a.Holds) != len(b.Holds) {
		return fmt.Sprintf("%d holds vs %d", len(a.Holds), len(b.Holds))
	}
	for i := range a.Holds {
		if a.Holds[i] != b.Holds[i] {
			return fmt.Sprintf("hold %d: %v vs %v", i, a.Holds[i], b.Holds[i])
		}
	}
	return ""
}

// String summarizes the timeline (first events and action statistics).
func (tl *Timeline) String() string {
	var sb strings.Builder
	counts := map[AccessAction]int{}
	for _, acts := range tl.Actions {
		for _, a := range acts {
			counts[a]++
		}
	}
	fmt.Fprintf(&sb, "timeline: %d events, actions: io=%d mem=%d elided=%d inactive=%d, holds=%d\n",
		len(tl.Events), counts[DoIO], counts[FromMemory], counts[Elided], counts[Inactive], len(tl.Holds))
	for i, ev := range tl.Events {
		if i >= 12 {
			fmt.Fprintf(&sb, "  ... (%d more)\n", len(tl.Events)-i)
			break
		}
		fmt.Fprintf(&sb, "  t=%v %s%v\n", ev.Time, ev.St.Name, ev.X)
	}
	return sb.String()
}
