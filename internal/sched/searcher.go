// Package sched implements the RIOTShare optimizer's schedule search (§5.2,
// §5.3): translating dependences and sharing opportunities into constraints
// on schedule coefficients via the Farkas lemma, the greedy per-dimension
// FindSchedule procedure (Algorithm 3) with dimensionality constraints
// (Algorithm 1), the Apriori-style enumeration of sharing-opportunity
// combinations (Algorithm 2), and independent legality verification of the
// schedules produced.
package sched

import (
	"fmt"
	"sync"

	"riotshare/internal/deps"
	"riotshare/internal/farkas"
	"riotshare/internal/linalg"
	"riotshare/internal/polyhedra"
	"riotshare/internal/prog"
)

// constraintMode selects which schedule constraint a Farkas application
// derives for a co-access at one time dimension.
type constraintMode uint8

const (
	modeWeak    constraintMode = iota // ψ >= 0 (weak dependence satisfaction)
	modeStrict                        // ψ >= 1 (strong dependence satisfaction)
	modeEqZero                        // ψ == 0 (sharing: identical time component)
	modeEqPlus                        // ψ == +1 (self sharing at depth d̃)
	modeEqMinus                       // ψ == -1 (self R→R reversed at depth d̃)
)

// Searcher holds per-program state for schedule search: the unknown-vector
// layout (one block of ds+np+1 coefficients per statement, solved one time
// dimension at a time) and a cache of Farkas applications, which depend only
// on the extent piece and mode and are therefore shared across all
// FindSchedule calls.
type Searcher struct {
	Prog *prog.Program
	An   *deps.Analysis
	// NU is the total number of unknowns per time dimension.
	NU   int
	offs []int // per statement ID, offset of its coefficient block

	cache map[*polyhedra.Poly]map[constraintMode]*polyhedra.Poly
	// Memo answers PlanFor for sharing sets already tested, by this
	// Searcher or, when shared, by another of the same shape and
	// signature (see Memo). NewSearcher starts an empty one.
	Memo *Memo
	// SampleRadius bounds the integer-point search in unbounded coefficient
	// directions (schedule coefficients are small in practice).
	SampleRadius int64
	// Stats counts work done, for the optimization-time experiments.
	Stats Stats
}

// Stats reports search effort.
type Stats struct {
	FindScheduleCalls int
	FarkasApps        int
	CacheHits         int
	// MemoHits counts PlanFor answers served by the Memo without a
	// FindSchedule call. Call budgets count them as calls, so a memo
	// changes how fast a search runs, never which sets it tests.
	MemoHits int
}

// tested is the number of sharing sets PlanFor has answered, which the
// searches' call budgets bound.
func (st *Stats) tested() int { return st.FindScheduleCalls + st.MemoHits }

// NewSearcher prepares schedule search for an analyzed program.
func NewSearcher(an *deps.Analysis) *Searcher {
	p := an.Prog
	np := p.NumParams()
	offs := make([]int, len(p.Stmts))
	nu := 0
	for _, st := range p.Stmts {
		offs[st.ID] = nu
		nu += st.Ds() + np + 1
	}
	return &Searcher{
		Prog:         p,
		An:           an,
		NU:           nu,
		offs:         offs,
		cache:        make(map[*polyhedra.Poly]map[constraintMode]*polyhedra.Poly),
		Memo:         NewMemo(),
		SampleRadius: 3,
	}
}

// stmtWidth returns the coefficient-block width of a statement.
func (s *Searcher) stmtWidth(st *prog.Statement) int {
	return st.Ds() + s.Prog.NumParams() + 1
}

// template builds ψ(z; u) = θ_tgt(x') - θ_src(x) over a co-access's pair
// space, where u is the concatenated coefficient vector of the current time
// dimension.
func (s *Searcher) template(c *deps.CoAccess) *farkas.Template {
	np := s.Prog.NumParams()
	srcDs, tgtDs := c.Src.Ds(), c.Tgt.Ds()
	dim := srcDs + tgtDs + np
	t := farkas.NewTemplate(dim, s.NU)
	srcOff, tgtOff := s.offs[c.Src.ID], s.offs[c.Tgt.ID]
	for m := 0; m < srcDs; m++ {
		t.AddVarUnknown(m, srcOff+m, -1)
	}
	for m := 0; m < tgtDs; m++ {
		t.AddVarUnknown(srcDs+m, tgtOff+m, 1)
	}
	for pj := 0; pj < np; pj++ {
		t.AddVarUnknown(srcDs+tgtDs+pj, tgtOff+tgtDs+pj, 1)
		t.AddVarUnknown(srcDs+tgtDs+pj, srcOff+srcDs+pj, -1)
	}
	t.AddConstUnknown(tgtOff+tgtDs+np, 1)
	t.AddConstUnknown(srcOff+srcDs+np, -1)
	return t
}

// constraintFor returns (caching) the polyhedron over u derived from one
// extent piece in the given mode.
func (s *Searcher) constraintFor(c *deps.CoAccess, piece *polyhedra.Poly, mode constraintMode) *polyhedra.Poly {
	byMode, ok := s.cache[piece]
	if ok {
		if res, hit := byMode[mode]; hit {
			s.Stats.CacheHits++
			return res
		}
	} else {
		byMode = make(map[constraintMode]*polyhedra.Poly)
		s.cache[piece] = byMode
	}
	t := s.template(c)
	var res *polyhedra.Poly
	switch mode {
	case modeWeak:
		res = farkas.Apply(piece, t)
	case modeStrict:
		res = farkas.Apply(piece, t.Shifted(1))
	case modeEqZero:
		res = farkas.ApplyEq(piece, t)
	case modeEqPlus:
		res = farkas.ApplyEq(piece, t.Shifted(1))
	case modeEqMinus:
		res = farkas.ApplyEq(piece, t.Shifted(-1))
	}
	s.Stats.FarkasApps++
	byMode[mode] = res
	return res
}

// intersectAllPieces intersects X with the mode-constraint of every piece of
// the co-access extent.
func (s *Searcher) intersectAllPieces(x *polyhedra.Set, c *deps.CoAccess, mode constraintMode) *polyhedra.Set {
	for _, piece := range c.Extent.Ps {
		x = x.IntersectPoly(s.constraintFor(c, piece, mode))
	}
	return x
}

// enumRow is Algorithm 1: the linear-independence choices for the current
// row. remaining = rows left including this one; needed = rank still to
// acquire. Dependent (0) is tried before independent (1), matching the
// paper's enumeration order.
func enumRow(remaining, needed int) []int {
	switch {
	case needed == 0:
		return []int{0}
	case remaining == needed:
		return []int{1}
	default:
		return []int{0, 1}
	}
}

// spanConstraints returns equalities confining statement st's loop-variable
// coefficients to the span of its previous rows (l = 0): the row must be
// orthogonal to a basis of the null space of the previous rows.
func (s *Searcher) spanConstraints(st *prog.Statement, prevRows [][]int64) *polyhedra.Poly {
	p := polyhedra.NewPoly(s.NU)
	ds := st.Ds()
	for _, n := range linalg.NullSpaceBasis(prevRows, ds) {
		coef := make([]int64, s.NU)
		for q := 0; q < ds; q++ {
			coef[s.offs[st.ID]+q] = n[q]
		}
		p.AddEq(coef, 0)
	}
	return p
}

// orthConstraints returns equalities confining the row to the orthogonal
// complement of the previous rows (l = 1); any nonzero row satisfying them
// is linearly independent of the previous rows.
func (s *Searcher) orthConstraints(st *prog.Statement, prevRows [][]int64) *polyhedra.Poly {
	p := polyhedra.NewPoly(s.NU)
	ds := st.Ds()
	for _, r := range prevRows {
		if linalg.IsZeroVec(r) {
			continue
		}
		coef := make([]int64, s.NU)
		for q := 0; q < ds; q++ {
			coef[s.offs[st.ID]+q] = r[q]
		}
		p.AddEq(coef, 0)
	}
	return p
}

func (s *Searcher) setNonempty(x *polyhedra.Set) bool {
	for _, p := range x.Ps {
		if !p.IsEmptyRational() {
			return true
		}
	}
	return false
}

func universeSet(nu int) *polyhedra.Set {
	return polyhedra.FromPoly(polyhedra.NewPoly(nu))
}

func errf(format string, args ...any) error { return fmt.Errorf("sched: "+format, args...) }

// Memo remembers PlanFor's answers by sharing set: the schedule found, or
// that the set is infeasible. FindSchedule reads a program's statements,
// dependences and sharing opportunities but never its parameter values, so
// one Memo serves every Searcher whose analysis comes from the same
// deps.Prepared with the same deps.Signature. An answer cut short by a
// context is never stored. A Memo is safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	answers map[string]memoAnswer // by the ordered sharing set; guarded by mu
}

type memoAnswer struct {
	sch *prog.Schedule // nil when infeasible
	ok  bool
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{answers: make(map[string]memoAnswer)} }

func (m *Memo) get(key string) (memoAnswer, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.answers[key]
	return a, ok
}

func (m *Memo) put(key string, a memoAnswer) {
	m.mu.Lock()
	m.answers[key] = a
	m.mu.Unlock()
}
