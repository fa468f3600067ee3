package deps

import (
	"fmt"
	"sync"

	"riotshare/internal/polyhedra"
	"riotshare/internal/prog"
)

// Kind is the type of a co-access (Definition 1).
type Kind uint8

const (
	// RR is read followed by read.
	RR Kind = iota
	// RW is read followed by write.
	RW
	// WR is write followed by read.
	WR
	// WW is write followed by write.
	WW
)

// String renders e.g. "W→R".
func (k Kind) String() string {
	switch k {
	case RR:
		return "R→R"
	case RW:
		return "R→W"
	case WR:
		return "W→R"
	default:
		return "W→W"
	}
}

// CoAccess is a pair of accesses to the same array together with its extent
// polyhedron (Definition 1): all instance pairs (x, x') touching the same
// block with x before x' in the original schedule. Depending on its type and
// emptiness it is a dependence (Definition 2) and/or a sharing opportunity
// (Definition 3).
type CoAccess struct {
	Prog     *prog.Program
	Src, Tgt *prog.Statement
	SrcAcc   int // index into Src.Accesses
	TgtAcc   int // index into Tgt.Accesses
	Space    PairSpace
	// Extent is the (possibly preprocessed) extent polyhedron as a union of
	// basic polyhedra over the pair space.
	Extent *polyhedra.Set

	// pairsOnce computes pairs and pairsErr, ConcretePairs' answer.
	pairsOnce sync.Once
	pairs     [][2][]int64
	pairsErr  error
}

// SrcAccess returns the source access.
func (c *CoAccess) SrcAccess() *prog.Access { return &c.Src.Accesses[c.SrcAcc] }

// TgtAccess returns the target access.
func (c *CoAccess) TgtAccess() *prog.Access { return &c.Tgt.Accesses[c.TgtAcc] }

// Kind returns the co-access type.
func (c *CoAccess) Kind() Kind {
	s, t := c.SrcAccess().Type, c.TgtAccess().Type
	switch {
	case s == prog.Read && t == prog.Read:
		return RR
	case s == prog.Read && t == prog.Write:
		return RW
	case s == prog.Write && t == prog.Read:
		return WR
	default:
		return WW
	}
}

// IsSelf reports whether source and target are the same statement (Table 1's
// "self" case).
func (c *CoAccess) IsSelf() bool { return c.Src.ID == c.Tgt.ID }

// Array returns the shared array name.
func (c *CoAccess) Array() string { return c.SrcAccess().Array }

// String renders e.g. "s1WC→s2RC".
func (c *CoAccess) String() string {
	return fmt.Sprintf("%s%s%s→%s%s%s",
		c.Src.Name, c.SrcAccess().Type, c.Array(),
		c.Tgt.Name, c.TgtAccess().Type, c.Array())
}

// Key uniquely identifies the co-access within a program.
func (c *CoAccess) Key() string {
	return fmt.Sprintf("%d.%d→%d.%d", c.Src.ID, c.SrcAcc, c.Tgt.ID, c.TgtAcc)
}

// buildExtent constructs the raw extent polyhedron of a co-access under the
// original schedule: domain and guard constraints for both sides, block
// equality Φx = Φ'x', and the lexicographic order disjunction.
func buildExtent(p *prog.Program, sch *prog.Schedule, src *prog.Statement, srcAcc int, tgt *prog.Statement, tgtAcc int) (PairSpace, *polyhedra.Set) {
	ps := NewPairSpace(p, src, tgt)
	np := ps.NP
	total := ps.Dim()
	srcOff, tgtOff, paramOff := 0, src.Ds(), src.Ds()+tgt.Ds()
	names := ps.Names(p.Params)

	base := polyhedra.NewPoly(total, names...)
	add := func(q *polyhedra.Poly) {
		for _, c := range q.Cons {
			base.Add(c)
		}
	}
	add(liftPoly(p.DomainWithContext(src), src.Ds(), np, srcOff, paramOff, total))
	add(liftPoly(p.DomainWithContext(tgt), tgt.Ds(), np, tgtOff, paramOff, total))
	a, b := &src.Accesses[srcAcc], &tgt.Accesses[tgtAcc]
	if a.When != nil {
		add(liftPoly(a.When, src.Ds(), np, srcOff, paramOff, total))
	}
	if b.When != nil {
		add(liftPoly(b.When, tgt.Ds(), np, tgtOff, paramOff, total))
	}
	// Block equality, one row per array dimension.
	for r := range a.Phi {
		coef, k := diffRow(a.Phi[r], src.Ds(), b.Phi[r], tgt.Ds(), np, srcOff, tgtOff, paramOff, total)
		base.AddEq(coef, k)
	}
	set := polyhedra.NewSet(total, names...)
	for _, op := range orderPieces(sch, src, srcOff, tgt, tgtOff, np, paramOff, total) {
		set.AddPiece(polyhedra.Intersect(base, op))
	}
	return ps, set
}

// accessBefore reports whether access ai of statement s happens before
// access aj of the same statement within one instance: reads precede the
// write, and accesses of the same type follow their listed order.
func accessBefore(s *prog.Statement, ai, aj int) bool {
	a, b := s.Accesses[ai], s.Accesses[aj]
	if a.Type != b.Type {
		return a.Type == prog.Read
	}
	return ai < aj
}

// applyNoWriteInBetween removes from the extent every instance pair with an
// intervening write to the same block (§5.1). The blocker relation is built
// in the triple space (x, x', y), projected onto (x, x'), and subtracted;
// intra-instance ordering (reads before the write) is honoured so that e.g.
// the R→R co-access on an accumulator is blocked by the accumulator write
// in the source instance itself.
func applyNoWriteInBetween(p *prog.Program, sch *prog.Schedule, c *CoAccess) {
	array := c.Array()
	ps := c.Space
	np := ps.NP
	total := ps.Dim()
	srcOff, tgtOff := 0, c.Src.Ds()

	for _, sw := range p.Stmts {
		for wi := range sw.Accesses {
			w := &sw.Accesses[wi]
			if w.Type != prog.Write || w.Array != array {
				continue
			}
			// Triple space: pair columns, then y (sw vars), params stay at
			// the end: [src | tgt | y | params].
			triTotal := total + sw.Ds()
			yOff := c.Src.Ds() + c.Tgt.Ds()
			triParamOff := yOff + sw.Ds()

			tri := polyhedra.NewPoly(triTotal)
			add := func(q *polyhedra.Poly) {
				for _, cc := range q.Cons {
					tri.Add(cc)
				}
			}
			add(liftPoly(p.DomainWithContext(sw), sw.Ds(), np, yOff, triParamOff, triTotal))
			if w.When != nil {
				add(liftPoly(w.When, sw.Ds(), np, yOff, triParamOff, triTotal))
			}
			// Φw(y) = Φa(x): the write touches the same block as the source.
			a := c.SrcAccess()
			for r := range a.Phi {
				coef, k := diffRow(a.Phi[r], c.Src.Ds(), w.Phi[r], sw.Ds(), np, srcOff, yOff, triParamOff, triTotal)
				tri.AddEq(coef, k)
			}

			// after(x, y): Θ(x) ≺ Θw(y), or same instance with the write
			// positioned after the source access.
			after := polyhedra.NewSet(triTotal)
			for _, op := range orderPieces(sch, c.Src, srcOff, sw, yOff, np, triParamOff, triTotal) {
				after.AddPiece(op)
			}
			if sw.ID == c.Src.ID && accessBefore(sw, c.SrcAcc, wi) {
				same := polyhedra.NewPoly(triTotal)
				for i := 0; i < sw.Ds(); i++ {
					coef := make([]int64, triTotal)
					coef[srcOff+i] = 1
					coef[yOff+i] = -1
					same.AddEq(coef, 0)
				}
				after.AddPiece(same)
			}
			// before(y, x'): Θw(y) ≺ Θ'(x'), or same instance with the write
			// positioned before the target access.
			before := polyhedra.NewSet(triTotal)
			for _, op := range orderPieces(sch, sw, yOff, c.Tgt, tgtOff, np, triParamOff, triTotal) {
				before.AddPiece(op)
			}
			if sw.ID == c.Tgt.ID && accessBefore(sw, wi, c.TgtAcc) {
				same := polyhedra.NewPoly(triTotal)
				for i := 0; i < sw.Ds(); i++ {
					coef := make([]int64, triTotal)
					coef[yOff+i] = 1
					coef[tgtOff+i] = -1
					same.AddEq(coef, 0)
				}
				before.AddPiece(same)
			}

			blockTri := polyhedra.FromPoly(tri)
			blockTri = polyhedra.IntersectSet(blockTri, after)
			blockTri = polyhedra.IntersectSet(blockTri, before)
			if blockTri.IsEmpty() {
				continue
			}
			// Project out y, keeping [src | tgt | params].
			keep := make([]int, 0, total)
			for i := 0; i < c.Src.Ds()+c.Tgt.Ds(); i++ {
				keep = append(keep, i)
			}
			for i := 0; i < np; i++ {
				keep = append(keep, triParamOff+i)
			}
			blockers, _ := blockTri.ProjectOnto(keep)
			for _, bp := range blockers.Ps {
				c.Extent = c.Extent.SubtractPoly(bp)
			}
		}
	}
}
