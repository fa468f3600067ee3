package codegen_test

import (
	"reflect"
	"testing"

	"riotshare/internal/codegen"
	"riotshare/internal/core"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
)

func addMulPlans(t *testing.T) *core.Result {
	t.Helper()
	p := ops.AddMul(ops.AddMulConfig{
		N1: 3, N2: 4, N3: 2,
		ABBlock: ops.Dims{Rows: 6, Cols: 5},
		DBlock:  ops.Dims{Rows: 5, Cols: 4},
	})
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// AccessSets must mirror the timeline's actions: one entry per active
// access, in access order, with the block coordinates the executor would
// compute itself.
func TestAccessSetsMirrorActions(t *testing.T) {
	res := addMulPlans(t)
	for _, pl := range res.Plans {
		tl := pl.Timeline
		sets := tl.AccessSets()
		if len(sets) != len(tl.Events) {
			t.Fatalf("plan %s: %d access sets for %d events", pl.Label, len(sets), len(tl.Events))
		}
		for i, ev := range tl.Events {
			active := 0
			for ai := range ev.St.Accesses {
				if tl.Actions[i][ai] != codegen.Inactive {
					active++
				}
			}
			if len(sets[i]) != active {
				t.Fatalf("plan %s event %d: %d accesses, want %d", pl.Label, i, len(sets[i]), active)
			}
			prevAcc := -1
			for _, ba := range sets[i] {
				if ba.Acc <= prevAcc {
					t.Fatalf("plan %s event %d: access order not preserved", pl.Label, i)
				}
				prevAcc = ba.Acc
				ac := &ev.St.Accesses[ba.Acc]
				r, c := ac.BlockAt(ev.X, tl.Params)
				if ba.Block != (prog.BlockID{Array: ac.Array, R: r, C: c}) ||
					ba.Type != ac.Type || ba.Action != tl.Actions[i][ba.Acc] {
					t.Fatalf("plan %s event %d: access %+v does not match statement access", pl.Label, i, ba)
				}
			}
		}
	}
}

// HoldIntervals must cover every hold, stay within the timeline, and keep
// intervals of the same block disjoint and ordered.
func TestHoldIntervalsMergeAndCover(t *testing.T) {
	res := addMulPlans(t)
	sawHolds := false
	for _, pl := range res.Plans {
		tl := pl.Timeline
		ivs := tl.HoldIntervals()
		if len(tl.Holds) > 0 {
			sawHolds = true
		}
		for _, h := range tl.Holds {
			covered := false
			for _, iv := range ivs {
				if iv.Block == h.Block && iv.Start <= h.StartEvent && h.EndEvent <= iv.End {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("plan %s: hold %+v not covered by any interval", pl.Label, h)
			}
		}
		last := map[prog.BlockID]int{}
		for _, iv := range ivs {
			if iv.Start < 0 || iv.End >= len(tl.Events) || iv.Start > iv.End {
				t.Fatalf("plan %s: interval %+v out of range", pl.Label, iv)
			}
			if prev, ok := last[iv.Block]; ok && iv.Start <= prev {
				t.Fatalf("plan %s: intervals of %s overlap or unsorted", pl.Label, iv.Block)
			}
			last[iv.Block] = iv.End
		}
	}
	if !sawHolds {
		t.Fatal("expected at least one plan with holds")
	}
}

// An interval's start event must touch its block (it is the event that
// buffers it) — the invariant the parallel engine's producer edges rely on.
func TestHoldIntervalStartAccessesBlock(t *testing.T) {
	res := addMulPlans(t)
	for _, pl := range res.Plans {
		tl := pl.Timeline
		sets := tl.AccessSets()
		for _, iv := range tl.HoldIntervals() {
			found := false
			for _, ba := range sets[iv.Start] {
				if ba.Block == iv.Block {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("plan %s: interval %+v start event does not access the block", pl.Label, iv)
			}
		}
	}
}

// Account must give the same result over precomputed access sets (the
// executor's call) as resolving each event itself (the cost model's).
func TestAccountWithAndWithoutSets(t *testing.T) {
	res := addMulPlans(t)
	for _, pl := range res.Plans {
		tl := pl.Timeline
		if got, want := tl.Account(tl.AccessSets()), tl.Account(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("plan %s: Account(sets) = %+v, Account(nil) = %+v", pl.Label, got, want)
		}
	}
}

// AccessSets runs on every exec run, so it must not allocate per access:
// its allocations may not grow with the number of accesses an event makes.
func TestAccessSetsAllocations(t *testing.T) {
	p := ops.AddMul(ops.AddMulConfig{
		N1: 5, N2: 5, N3: 5,
		ABBlock: ops.Dims{Rows: 64, Cols: 64},
		DBlock:  ops.Dims{Rows: 64, Cols: 64},
	})
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Plans[0].Timeline
	allocs := testing.AllocsPerRun(10, func() { tl.AccessSets() })
	if events := float64(len(tl.Events)); allocs > events {
		t.Fatalf("AccessSets made %.0f allocations for %d events, want at most one per event", allocs, len(tl.Events))
	}
}
