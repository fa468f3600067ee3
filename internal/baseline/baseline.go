// Package baseline provides the comparison engines of §6.1 (DESIGN.md
// substitution S5): a Matlab-like operator-at-a-time executor (each
// operator well-blocked in isolation, intermediates materialized, no
// cross-operator sharing), a SciDB-like chunk-at-a-time executor (no
// sharing at all, naive kernels), and an LRU buffer-pool engine that
// executes the original order with opportunistic caching under a memory
// cap — the "low-level, opportunistic" database approach §2 contrasts with
// RIOTShare's principled optimization. No benchmark workload runs these
// engines; they are kept because internal/bench's paper-figure experiments
// and their tests compare against them.
package baseline

import (
	"container/list"
	"fmt"

	"riotshare/internal/blas"
	"riotshare/internal/codegen"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// OperatorAtATime evaluates the Matlab-like strategy: every statement is
// optimized in isolation (its feasible self sharing opportunities —
// accumulator kept in memory, operand reuse within the operator) but no
// sharing crosses operators. Returns the evaluated plan.
func OperatorAtATime(p *prog.Program, opt core.Options) (*core.EvaluatedPlan, error) {
	res, err := core.Optimize(p, opt)
	if err != nil {
		return nil, err
	}
	// Pick the cheapest plan whose shares are all self opportunities.
	var best *core.EvaluatedPlan
	for i := range res.Plans {
		pl := &res.Plans[i]
		allSelf := true
		for _, idx := range pl.Plan.Shares {
			if !res.Analysis.Shares[idx].IsSelf() {
				allSelf = false
				break
			}
		}
		if !allSelf {
			continue
		}
		if opt.MemCapBytes > 0 && pl.Cost.PeakMemoryBytes > opt.MemCapBytes {
			continue
		}
		if best == nil || pl.Cost.IOTimeSec < best.Cost.IOTimeSec {
			best = pl
		}
	}
	if best == nil {
		return nil, fmt.Errorf("baseline: no operator-at-a-time plan fits")
	}
	return best, nil
}

// NoSharing evaluates the SciDB-like strategy: the unmodified original
// execution with every intermediate materialized and no I/O sharing (the
// paper's Plan 0).
func NoSharing(p *prog.Program, opt core.Options) (*core.EvaluatedPlan, error) {
	res, err := core.OptimizeSubsets(p, opt, nil)
	if err != nil {
		return nil, err
	}
	return res.Baseline(), nil
}

// LRUEngine executes a timeline's statement order while ignoring its
// sharing actions, relying purely on an LRU buffer pool with a byte cap —
// what a conventional buffer manager would achieve with the same memory.
type LRUEngine struct {
	Store    *storage.Manager
	Model    disk.Model
	CapBytes int64
}

type lruEntry struct {
	key   string
	blk   *blas.Matrix
	bytes int64
	dirty bool
	array string
	r, c  int64
}

// Run executes the timeline with LRU caching. Sharing actions in the
// timeline are ignored: every read goes through the pool; hits are free,
// misses do I/O; dirty blocks write back on eviction and at the end.
func (e *LRUEngine) Run(tl *codegen.Timeline) (exec.Result, error) {
	var res exec.Result
	p := tl.Prog
	lru := list.New() // front = most recent
	byKey := make(map[string]*list.Element)
	var used int64

	evictTo := func(budget int64) error {
		for used > budget && lru.Len() > 0 {
			el := lru.Back()
			ent := el.Value.(*lruEntry)
			if ent.dirty {
				if err := e.Store.WriteBlock(ent.array, ent.r, ent.c, ent.blk); err != nil {
					return err
				}
				res.WriteBytes += ent.bytes
				res.WriteReqs++
			}
			used -= ent.bytes
			lru.Remove(el)
			delete(byKey, ent.key)
		}
		return nil
	}
	touch := func(key string) (*lruEntry, bool) {
		if el, ok := byKey[key]; ok {
			lru.MoveToFront(el)
			return el.Value.(*lruEntry), true
		}
		return nil, false
	}
	insert := func(ent *lruEntry) error {
		if el, ok := byKey[ent.key]; ok {
			old := el.Value.(*lruEntry)
			used -= old.bytes
			lru.Remove(el)
			delete(byKey, ent.key)
		}
		if err := evictTo(e.CapBytes - ent.bytes); err != nil {
			return err
		}
		byKey[ent.key] = lru.PushFront(ent)
		used += ent.bytes
		if used > res.PeakMemoryBytes {
			res.PeakMemoryBytes = used
		}
		return nil
	}

	for i, ev := range tl.Events {
		st := ev.St
		var in []*blas.Matrix
		var accRead *blas.Matrix
		var outBlk *blas.Matrix
		var writeAcc *prog.Access
		for ai := range st.Accesses {
			ac := &st.Accesses[ai]
			if tl.Actions[i][ai] == codegen.Inactive {
				continue
			}
			arr := p.Arrays[ac.Array]
			r, c := ac.BlockAt(ev.X, tl.Params)
			key := codegen.BlockKey(ac.Array, r, c)
			if ac.Type == prog.Write {
				writeAcc = ac
				if ent, hit := touch(key); hit && ent.dirty {
					outBlk = ent.blk
				} else if hit {
					// A clean entry holds the store's own matrix (ReadBlock
					// results are shared and immutable): write to a copy.
					outBlk = ent.blk.Clone()
				} else {
					outBlk = blas.NewMatrix(arr.BlockRows, arr.BlockCols)
				}
				continue
			}
			var m *blas.Matrix
			if ent, hit := touch(key); hit {
				m = ent.blk
			} else {
				var err error
				m, err = e.Store.ReadBlock(ac.Array, r, c)
				if err != nil {
					return res, err
				}
				res.ReadBytes += arr.LogicalBlockBytes
				res.ReadReqs++
				if err := insert(&lruEntry{key: key, blk: m, bytes: arr.LogicalBlockBytes, array: ac.Array, r: r, c: c}); err != nil {
					return res, err
				}
			}
			if w := st.WriteAccess(); w != nil && w.Array == ac.Array {
				accRead = m
			} else {
				in = append(in, m)
			}
		}
		if err := exec.RunKernel(st, in, accRead, outBlk); err != nil {
			return res, fmt.Errorf("baseline: %s%v: %w", st.Name, ev.X, err)
		}
		if writeAcc != nil {
			arr := p.Arrays[writeAcc.Array]
			r, c := writeAcc.BlockAt(ev.X, tl.Params)
			key := codegen.BlockKey(writeAcc.Array, r, c)
			// Write-back caching: mark dirty, defer the physical write.
			if err := insert(&lruEntry{key: key, blk: outBlk, bytes: arr.LogicalBlockBytes, dirty: true, array: writeAcc.Array, r: r, c: c}); err != nil {
				return res, err
			}
		}
	}
	// Flush dirty blocks.
	for el := lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*lruEntry)
		if ent.dirty {
			if err := e.Store.WriteBlock(ent.array, ent.r, ent.c, ent.blk); err != nil {
				return res, err
			}
			res.WriteBytes += ent.bytes
			res.WriteReqs++
		}
	}
	res.SimulatedIOSec = e.Model.Time(res.ReadBytes, res.WriteBytes, res.ReadReqs, res.WriteReqs)
	return res, nil
}
