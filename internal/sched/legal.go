package sched

import (
	"riotshare/internal/deps"
	"riotshare/internal/polyhedra"
	"riotshare/internal/prog"
)

// Legal verifies a schedule against every dependence, independently of how
// the schedule was constructed: for each dependence piece P, the violation
// set P ∩ {Θ_tgt(x') ⪯ Θ_src(x)} must have no integer point (for any
// parameter values in the context). This is the safety net that guarantees
// the optimizer never emits an illegal plan.
func (s *Searcher) Legal(sch *prog.Schedule) bool {
	// The violation pieces keep the parameters free, and a legal schedule's
	// are all empty: a rational test, which picks its elimination order,
	// settles them 1.2-2x faster than IsEmptyInt's fixed-order chain alone
	// (on the paper's programs).
	empty := func(v *polyhedra.Poly) bool { return v.IsEmptyRational() || v.IsEmptyInt(16) }
	for _, dep := range s.An.Deps {
		if !eachViolation(dep, sch, s.Prog.NumParams(), empty) {
			return false
		}
	}
	return true
}

// eachViolation calls f on each violation piece of dep under sch, in
// order, until f returns false, and reports whether every call returned
// true. A violation piece is a piece of the dependence's parametric extent
// intersected with "equal on time dimensions < q, reversed at q", for each
// q, plus the all-equal piece (which would also break injectivity).
func eachViolation(dep *deps.CoAccess, sch *prog.Schedule, np int, f func(*polyhedra.Poly) bool) bool {
	src, tgt := dep.Src, dep.Tgt
	srcRows, tgtRows := sch.Rows[src.ID], sch.Rows[tgt.ID]
	total := src.Ds() + tgt.Ds() + np
	srcOff, tgtOff, paramOff := 0, src.Ds(), src.Ds()+tgt.Ds()

	// diff_q = Θ_tgt,q(x') - Θ_src,q(x) as a row over the pair space.
	diff := make([][]int64, sch.NRows)
	diffK := make([]int64, sch.NRows)
	for qd := 0; qd < sch.NRows; qd++ {
		coef := make([]int64, total)
		for i := 0; i < src.Ds(); i++ {
			coef[srcOff+i] -= srcRows[qd][i]
		}
		for i := 0; i < tgt.Ds(); i++ {
			coef[tgtOff+i] += tgtRows[qd][i]
		}
		for j := 0; j < np; j++ {
			coef[paramOff+j] += tgtRows[qd][tgt.Ds()+j] - srcRows[qd][src.Ds()+j]
		}
		diff[qd] = coef
		diffK[qd] = tgtRows[qd][tgt.Ds()+np] - srcRows[qd][src.Ds()+np]
	}

	for _, piece := range dep.Extent.Ps {
		for q := 0; q <= sch.NRows; q++ {
			v := piece.Clone()
			for r := 0; r < q; r++ {
				v.AddEq(diff[r], diffK[r])
			}
			if q < sch.NRows {
				// tgt - src <= -1 at dim q.
				neg := make([]int64, total)
				for i, c := range diff[q] {
					neg[i] = -c
				}
				v.AddIneq(neg, -diffK[q]-1)
			}
			if !f(v) {
				return false
			}
		}
	}
	return true
}

// VerifyConcrete checks legality at the instance level for the program's
// bound parameters: it enumerates every dependence pair and compares actual
// schedule times. The scheduler's and core's tests use it as a second,
// enumeration-based check on the symbolic legality test; no serving or
// execution path calls it.
func (s *Searcher) VerifyConcrete(sch *prog.Schedule) error {
	params := s.Prog.ParamValues()
	for _, dep := range s.An.Deps {
		pairs, err := dep.ConcretePairs()
		if err != nil {
			return err
		}
		for _, pr := range pairs {
			t1 := sch.TimeOf(dep.Src, pr[0], params)
			t2 := sch.TimeOf(dep.Tgt, pr[1], params)
			if !prog.LexLess(t1, t2) {
				return errf("dependence %s violated at %v→%v: %v !< %v", dep, pr[0], pr[1], t1, t2)
			}
		}
	}
	return nil
}
