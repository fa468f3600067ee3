// Package baseline provides the comparison rows of §6.1's system
// comparison (DESIGN.md substitution S5): the Matlab-like operator-at-a-time
// plan (each operator well-blocked in isolation, intermediates
// materialized, no cross-operator sharing), the SciDB-like no-sharing plan
// (the original execution, every intermediate materialized), and the
// original order run through the system's own LRU buffer pool under a
// memory cap (RunLRU) — the "low-level, opportunistic" database approach §2
// contrasts with RIOTShare's principled optimization. No benchmark workload
// runs them; internal/bench's system comparison and its tests do.
package baseline

import (
	"fmt"
	"sort"

	"riotshare/internal/buffer"
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

// LogicalScale returns the program's logical/physical block-byte ratio:
// how many paper-scale logical bytes (Array.LogicalBlockBytes, the unit of
// core's Cost) one physical byte of the store and of buffer.Pool stands
// for. It refuses a program whose arrays disagree on the ratio, since no
// single conversion between the two units would then hold.
func LogicalScale(p *prog.Program) (int64, error) {
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	var scale int64
	for i, name := range names {
		arr := p.Arrays[name]
		phys := arr.PhysicalBlockBytes()
		if phys <= 0 || arr.LogicalBlockBytes%phys != 0 {
			return 0, fmt.Errorf("baseline: %s: logical block of %d B is not a whole multiple of its %d physical bytes",
				name, arr.LogicalBlockBytes, phys)
		}
		if s := arr.LogicalBlockBytes / phys; i == 0 {
			scale = s
		} else if s != scale {
			return 0, fmt.Errorf("baseline: %s scales physical bytes by %d, %s by %d: no single logical/physical ratio",
				names[0], scale, name, s)
		}
	}
	if scale == 0 {
		return 0, fmt.Errorf("baseline: program %s has no arrays", p.Name)
	}
	return scale, nil
}

// LRURun reports one RunLRU.
type LRURun struct {
	// Physical is the I/O the store saw during the run and the final
	// flush, in physical bytes.
	Physical storage.Stats
	// Pool is the pool's counters after the flush; its byte figures are
	// physical.
	Pool buffer.Stats
	// Scale is the program's LogicalScale.
	Scale int64
}

// IOTimeSec prices Physical at paper scale (bytes × Scale) under the
// paper's disk model, the units core's Cost.IOTimeSec is in.
func (r LRURun) IOTimeSec() float64 {
	return disk.PaperModel().Time(r.Physical.ReadBytes*r.Scale, r.Physical.WriteBytes*r.Scale,
		r.Physical.ReadReqs, r.Physical.WriteReqs)
}

// RunLRU executes the timeline through exec over a buffer.Pool on store,
// capped at capBytes logical bytes, and flushes the pool: what a
// conventional buffer manager achieves with that memory when it cannot see
// the plan's access order. Given a no-sharing timeline every block access
// goes through the pool, hits are free, misses read, and dirty blocks are
// written back on eviction and at the flush. The run keeps the in-order
// schedule: under the DAG schedule concurrent workers and the prefetcher
// pin frames past the soft cap, so the pool would no longer have the same
// memory.
func RunLRU(tl *codegen.Timeline, store storage.Backend, capBytes int64) (LRURun, error) {
	scale, err := LogicalScale(tl.Prog)
	if err != nil {
		return LRURun{}, err
	}
	pool := buffer.NewPool(store, capBytes/scale)
	before := store.Stats()
	eng := &exec.Engine{Pool: pool}
	if _, err := eng.Run(tl); err != nil {
		return LRURun{}, err
	}
	if err := pool.Flush(); err != nil {
		return LRURun{}, err
	}
	return LRURun{Physical: store.Stats().Sub(before), Pool: pool.Stats(), Scale: scale}, nil
}
