package sched

import (
	"context"
	"sort"

	"riotshare/internal/deps"
	"riotshare/internal/linalg"
	"riotshare/internal/polyhedra"
	"riotshare/internal/prog"
)

// feas tracks the evolving coefficient space of one time dimension together
// with a witness point, so that most feasibility checks after adding
// constraints are O(constraints) membership tests instead of full
// Fourier-Motzkin eliminations.
type feas struct {
	set *polyhedra.Set
	wit []int64
}

// refine intersects the space with a polyhedron and refreshes the witness;
// ok=false means the refined space has no reachable integer point (within
// the sampling radius, which suffices for schedule coefficients), or that
// ctx was done before a new witness had to be sampled.
func (s *Searcher) refine(ctx context.Context, f feas, p *polyhedra.Poly) (feas, bool) {
	x := f.set.IntersectPoly(p)
	if f.wit != nil && p.Contains(f.wit) {
		return feas{set: x, wit: f.wit}, true
	}
	if canceled(ctx) {
		return feas{set: x}, false
	}
	if wit, ok := x.SampleInt(s.SampleRadius); ok {
		return feas{set: x, wit: wit}, true
	}
	return feas{set: x}, false
}

// refineSet is refine for a union constraint.
func (s *Searcher) refineSet(ctx context.Context, f feas, u *polyhedra.Set) (feas, bool) {
	x := polyhedra.IntersectSet(f.set, u)
	if f.wit != nil && u.Contains(f.wit) {
		return feas{set: x, wit: f.wit}, true
	}
	if canceled(ctx) {
		return feas{set: x}, false
	}
	if wit, ok := x.SampleInt(s.SampleRadius); ok {
		return feas{set: x, wit: wit}, true
	}
	return feas{set: x}, false
}

// FindSchedule is Algorithm 3: it searches for a schedule realizing every
// sharing opportunity in q while satisfying all dependences and
// dimensionality constraints, one time dimension at a time. It returns the
// schedule (d̃ affine rows plus the trailing constant dimension per
// statement) or ok=false when the combination is infeasible.
//
// The search checks ctx between constraint refinements and before every
// integer sample it draws for a dimension's coefficients, so a deadline or
// cancellation aborts mid-search (ok=false) within one sample; callers
// that must distinguish "infeasible" from "canceled" check ctx.Err()
// afterwards. This is what lets the serving tier hold a wall-clock
// planning budget and lets server shutdown stop an in-flight plan fill.
func (s *Searcher) FindSchedule(ctx context.Context, q []*deps.CoAccess) (*prog.Schedule, bool) {
	s.Stats.FindScheduleCalls++
	p := s.Prog
	dt := p.DTilde()

	// Classify the sharing opportunities (Algorithm 3, lines 3-6).
	var qsw, qsr, qnw, qnr []*deps.CoAccess
	for _, c := range q {
		self := c.IsSelf()
		rr := c.Kind() == deps.RR
		switch {
		case self && !rr:
			qsw = append(qsw, c)
		case self && rr:
			qsr = append(qsr, c)
		case !self && !rr:
			qnw = append(qnw, c)
		default:
			qnr = append(qnr, c)
		}
	}

	// Dependences are satisfied piece by piece: each basic polyhedron of a
	// dependence's extent union is an independent ordering constraint that
	// may be strongly satisfied at its own depth (e.g. the accumulator
	// "carry" piece (i, m-1)→(i+1, 0) strictly increases at the outer
	// dimension while the inner piece does so at the inner one).
	var remaining []depUnit
	for _, dep := range s.An.Deps {
		for _, piece := range dep.Extent.Ps {
			remaining = append(remaining, depUnit{co: dep, piece: piece})
		}
	}
	rows := make(map[int][][]int64)     // full sampled rows per statement
	loopRows := make(map[int][][]int64) // loop-var parts, for rank bookkeeping
	ki := make(map[int]int)

	for d := 1; d <= dt; d++ {
		if canceled(ctx) {
			return nil, false
		}
		f := feas{set: universeSet(s.NU), wit: make([]int64, s.NU)}
		var ok bool
		// Weakly satisfy remaining dependence constraints (lines 11-12).
		for _, dep := range remaining {
			if canceled(ctx) {
				return nil, false
			}
			if f, ok = s.refine(ctx, f, s.constraintFor(dep.co, dep.piece, modeWeak)); !ok {
				return nil, false
			}
		}
		// Non-self sharing constraints: zero difference at every dimension
		// (lines 13-14, Table 1).
		for _, c := range append(append([]*deps.CoAccess(nil), qnw...), qnr...) {
			if canceled(ctx) {
				return nil, false
			}
			for _, piece := range c.Extent.Ps {
				if f, ok = s.refine(ctx, f, s.constraintFor(c, piece, modeEqZero)); !ok {
					return nil, false
				}
			}
		}
		// Self sharing constraints (lines 15-26, Table 1).
		if d < dt {
			for _, c := range append(append([]*deps.CoAccess(nil), qsw...), qsr...) {
				for _, piece := range c.Extent.Ps {
					if f, ok = s.refine(ctx, f, s.constraintFor(c, piece, modeEqZero)); !ok {
						return nil, false
					}
				}
			}
		} else {
			for _, c := range qsw {
				for _, piece := range c.Extent.Ps {
					if f, ok = s.refine(ctx, f, s.constraintFor(c, piece, modeEqPlus)); !ok {
						return nil, false
					}
				}
			}
			for _, c := range qsr {
				// Either order: +1 or -1 at depth d̃ (lines 23-26).
				u := polyhedra.NewSet(s.NU)
				for _, dir := range []constraintMode{modeEqPlus, modeEqMinus} {
					branch := polyhedra.NewPoly(s.NU)
					for _, piece := range c.Extent.Ps {
						branch = polyhedra.Intersect(branch, s.constraintFor(c, piece, dir))
					}
					u.AddPiece(branch)
				}
				if f, ok = s.refineSet(ctx, f, u); !ok {
					return nil, false
				}
			}
		}
		// Dimensionality constraints (lines 28-38, Algorithm 1).
		if canceled(ctx) {
			return nil, false
		}
		needIndep := make(map[int]bool)
		for _, st := range p.Stmts {
			chosen := false
			for _, l := range enumRow(dt-(d-1), st.Ds()-ki[st.ID]) {
				var t *polyhedra.Poly
				if l == 0 {
					t = s.spanConstraints(st, loopRows[st.ID])
				} else {
					t = s.orthConstraints(st, loopRows[st.ID])
				}
				f2, ok := s.refine(ctx, f, t)
				if ok && l == 1 && !s.hasNonzeroLoopPart(ctx, f2, st) {
					ok = false
				}
				if ok {
					f = f2
					ki[st.ID] += l
					needIndep[st.ID] = l == 1
					chosen = true
					break
				}
			}
			if !chosen {
				return nil, false
			}
		}
		// Strongly satisfy remaining dependence constraints greedily
		// (lines 39-43), piece by piece.
		kept := remaining[:0]
		for _, dep := range remaining {
			if f2, ok := s.refine(ctx, f, s.constraintFor(dep.co, dep.piece, modeStrict)); ok {
				f = f2
			} else {
				kept = append(kept, dep)
			}
		}
		remaining = kept
		// A refinement cut short by ctx reads as infeasible, which may have
		// steered the choices above; a canceled search returns nothing.
		if canceled(ctx) {
			return nil, false
		}
		// Sample the dimension's coefficients (line 44), forcing nonzero
		// loop parts for statements whose row must be independent.
		u, ok := s.samplePoint(ctx, f, needIndep)
		if !ok {
			return nil, false
		}
		for _, st := range p.Stmts {
			w := s.stmtWidth(st)
			row := linalg.CloneVec(u[s.offs[st.ID] : s.offs[st.ID]+w])
			rows[st.ID] = append(rows[st.ID], row)
			lp := linalg.CloneVec(row[:st.Ds()])
			if needIndep[st.ID] || !linalg.IsZeroVec(lp) {
				loopRows[st.ID] = append(loopRows[st.ID], lp)
			}
		}
	}
	// Every statement must have acquired full rank.
	for _, st := range p.Stmts {
		if ki[st.ID] != st.Ds() {
			return nil, false
		}
	}
	// Constants for the last dimension (line 46): topological sort over the
	// precedence constraints from unsatisfied dependences and non-self
	// W→R/W→W sharing opportunities; all statements receive distinct
	// constants, which also separates instances of different statements.
	consts, ok := s.assignConstants(remaining, qnw)
	if !ok {
		return nil, false
	}
	sch := prog.NewSchedule(dt + 1)
	np := p.NumParams()
	for _, st := range p.Stmts {
		full := make([][]int64, 0, dt+1)
		full = append(full, rows[st.ID]...)
		cRow := make([]int64, st.Ds()+np+1)
		cRow[st.Ds()+np] = consts[st.ID]
		full = append(full, cRow)
		sch.SetRows(st.ID, full)
	}
	if !s.Legal(sch) {
		// The greedy construction is sound by design; this guards against
		// sampling corner cases by rejecting rather than returning an
		// illegal schedule.
		return nil, false
	}
	return sch, true
}

// canceled reports whether the context has been canceled or has passed
// its deadline, without blocking. It is polled between constraint
// refinements and before each coefficient sample: each involves polyhedral
// intersection or integer sampling, so the poll is negligible against the
// work it gates.
func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// hasNonzeroLoopPart reports whether the feasible space admits a nonzero
// loop coefficient for the statement (checking the witness first). Once
// ctx is done it reports false without sampling further.
func (s *Searcher) hasNonzeroLoopPart(ctx context.Context, f feas, st *prog.Statement) bool {
	if f.wit != nil {
		for q := 0; q < st.Ds(); q++ {
			if f.wit[s.offs[st.ID]+q] != 0 {
				return true
			}
		}
	}
	for q := 0; q < st.Ds(); q++ {
		for _, val := range []int64{1, -1} {
			coef := make([]int64, s.NU)
			coef[s.offs[st.ID]+q] = 1
			for _, piece := range f.set.Ps {
				if canceled(ctx) {
					return false
				}
				cand := piece.Clone().AddEq(coef, -val)
				if _, ok := cand.SampleInt(s.SampleRadius); ok {
					return true
				}
			}
		}
	}
	return false
}

// samplePoint draws an integer point from the feasible space, greedily
// forcing a ±1 loop coefficient for every statement that needs an
// independent (hence nonzero) row this dimension. The witness is used
// directly when it already satisfies the nonzero requirements. Once ctx is
// done it reports false without sampling further.
func (s *Searcher) samplePoint(ctx context.Context, f feas, needIndep map[int]bool) ([]int64, bool) {
	var stmts []*prog.Statement
	for _, st := range s.Prog.Stmts {
		if needIndep[st.ID] {
			stmts = append(stmts, st)
		}
	}
	if f.wit != nil {
		good := true
		for _, st := range stmts {
			nz := false
			for q := 0; q < st.Ds(); q++ {
				if f.wit[s.offs[st.ID]+q] != 0 {
					nz = true
					break
				}
			}
			if !nz {
				good = false
				break
			}
		}
		if good {
			return f.wit, true
		}
	}
	for _, piece := range f.set.Ps {
		if pt, ok := s.samplePieceForced(ctx, piece, stmts, 0); ok {
			return pt, true
		}
	}
	return nil, false
}

// samplePieceForced draws an integer point from one piece with a ±1 loop
// coefficient forced for each of stmts[idx:], backtracking over the
// choices. Every branch ends in a sample, so ctx is checked before each.
func (s *Searcher) samplePieceForced(ctx context.Context, piece *polyhedra.Poly, stmts []*prog.Statement, idx int) ([]int64, bool) {
	if canceled(ctx) {
		return nil, false
	}
	if idx == len(stmts) {
		return piece.SampleInt(s.SampleRadius)
	}
	st := stmts[idx]
	for q := 0; q < st.Ds(); q++ {
		for _, val := range []int64{1, -1} {
			coef := make([]int64, s.NU)
			coef[s.offs[st.ID]+q] = 1
			cand := piece.Clone().AddEq(coef, -val)
			if pt, ok := s.samplePieceForced(ctx, cand, stmts, idx+1); ok {
				return pt, true
			}
		}
	}
	return nil, false
}

// depUnit is one basic polyhedron of a dependence's extent union.
type depUnit struct {
	co    *deps.CoAccess
	piece *polyhedra.Poly
}

// assignConstants performs the topological constant assignment for the last
// schedule dimension. Unsatisfied self dependences make the combination
// infeasible (equal constants cannot order them).
func (s *Searcher) assignConstants(remaining []depUnit, qnw []*deps.CoAccess) (map[int]int64, bool) {
	n := len(s.Prog.Stmts)
	adj := make(map[int]map[int]bool)
	edge := func(a, b int) {
		if adj[a] == nil {
			adj[a] = make(map[int]bool)
		}
		adj[a][b] = true
	}
	for _, dep := range remaining {
		if dep.co.Src.ID == dep.co.Tgt.ID {
			return nil, false
		}
		edge(dep.co.Src.ID, dep.co.Tgt.ID)
	}
	for _, c := range qnw {
		if c.Src.ID == c.Tgt.ID {
			return nil, false
		}
		edge(c.Src.ID, c.Tgt.ID)
	}
	indeg := make([]int, n)
	for _, outs := range adj {
		for b := range outs {
			indeg[b]++
		}
	}
	var order []int
	avail := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			avail = append(avail, i)
		}
	}
	for len(avail) > 0 {
		sort.Ints(avail)
		v := avail[0]
		avail = avail[1:]
		order = append(order, v)
		for b := range adj[v] {
			indeg[b]--
			if indeg[b] == 0 {
				avail = append(avail, b)
			}
		}
	}
	if len(order) != n {
		return nil, false // cycle
	}
	consts := make(map[int]int64, n)
	for pos, id := range order {
		consts[id] = int64(pos)
	}
	return consts, true
}
