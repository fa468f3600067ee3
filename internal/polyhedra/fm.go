package polyhedra

import (
	"riotshare/internal/linalg"
)

// EliminateVar projects out variable i by Fourier-Motzkin elimination,
// returning a polyhedron of dimension Dim-1 (column i removed). The boolean
// result reports whether the projection is exact on integer points: it is
// exact when the variable is eliminated through an equality with a ±1
// coefficient, or when every inequality pair combined has a ±1 coefficient
// on the eliminated variable (the standard Omega-test exactness condition).
// All access functions and schedules in this system have ±1 coefficients, so
// eliminations are exact in practice; callers that must be exact check the
// flag.
func (p *Poly) EliminateVar(i int) (*Poly, bool) {
	exact := true
	// Prefer substitution through an equality containing variable i.
	bestEq := -1
	for j, c := range p.Cons {
		if c.Eq && c.Coef[i] != 0 {
			if bestEq < 0 || abs64(c.Coef[i]) < abs64(p.Cons[bestEq].Coef[i]) {
				bestEq = j
			}
		}
	}
	q := &Poly{Dim: p.Dim - 1, Rational: p.Rational}
	if len(p.Names) == p.Dim {
		q.Names = append(append([]string(nil), p.Names[:i]...), p.Names[i+1:]...)
	}
	if bestEq >= 0 {
		e := p.Cons[bestEq]
		if abs64(e.Coef[i]) != 1 {
			exact = false
		}
		out := newDerived(q, i, len(p.Cons)-1)
		for j, c := range p.Cons {
			if j == bestEq {
				continue
			}
			if c.Coef[i] == 0 {
				out.add(1, c, 0, e, c.Eq)
				continue
			}
			// Cancel variable i: h = e_i*c - c_i*e. On points of the
			// polyhedron e == 0, so h = e_i*c; flip if e_i < 0 to preserve the
			// inequality direction.
			a, b := e.Coef[i], -c.Coef[i]
			if a < 0 && !c.Eq {
				a, b = -a, -b
			}
			out.add(a, c, b, e, c.Eq)
		}
		q.Simplify()
		return q, exact
	}
	// Pure inequality elimination: the constraints without variable i
	// first, then every lower bound combined with every upper bound.
	var nLo, nUp int
	for _, c := range p.Cons {
		switch {
		case c.Coef[i] > 0:
			nLo++
		case c.Coef[i] < 0:
			nUp++
		}
	}
	out := newDerived(q, i, len(p.Cons)-nLo-nUp+nLo*nUp)
	lowers, uppers := make([]Constraint, 0, nLo), make([]Constraint, 0, nUp)
	for _, c := range p.Cons {
		switch {
		case c.Coef[i] > 0:
			lowers = append(lowers, c) // c_i * x_i >= -(rest)
		case c.Coef[i] < 0:
			uppers = append(uppers, c)
		default:
			out.add(1, c, 0, c, c.Eq)
		}
	}
	for _, lo := range lowers {
		for _, up := range uppers {
			if lo.Coef[i] != 1 && -up.Coef[i] != 1 {
				exact = false
			}
			// h = (-up_i)*lo + lo_i*up has zero coefficient on i and is a
			// nonnegative combination of nonnegative expressions.
			out.add(-up.Coef[i], lo, lo.Coef[i], up, false)
		}
	}
	q.Simplify()
	return q, exact
}

// derived writes the constraints of a projection that drops column col
// straight into their reduced width, all rows in one backing array.
type derived struct {
	q   *Poly
	col int
	buf []int64
}

// newDerived prepares room for n constraints of q, the projection.
func newDerived(q *Poly, col, n int) *derived {
	q.Cons = make([]Constraint, 0, n)
	return &derived{q: q, col: col, buf: make([]int64, n*q.Dim)}
}

// add appends a*c1 + b*c2 without column col (c2 is not read when b is
// zero); eq says whether the result is an equality.
func (d *derived) add(a int64, c1 Constraint, b int64, c2 Constraint, eq bool) {
	w := d.q.Dim
	coef := d.buf[:w:w]
	d.buf = d.buf[w:]
	k := a * c1.K
	if b == 0 {
		for m, x := range c1.Coef[:d.col] {
			coef[m] = a * x
		}
		for m, x := range c1.Coef[d.col+1:] {
			coef[d.col+m] = a * x
		}
	} else {
		k += b * c2.K
		for m := 0; m < d.col; m++ {
			coef[m] = a*c1.Coef[m] + b*c2.Coef[m]
		}
		for m := d.col + 1; m <= w; m++ {
			coef[m-1] = a*c1.Coef[m] + b*c2.Coef[m]
		}
	}
	d.q.Cons = append(d.q.Cons, Constraint{Coef: coef, K: k, Eq: eq})
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// ProjectOnto eliminates every variable except those in keep (given as a set
// of column indices), returning the projection over the kept columns in
// their original order and whether it was exact.
func (p *Poly) ProjectOnto(keep []int) (*Poly, bool) {
	keepSet := make(map[int]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	q := p.Clone()
	exact := true
	// Eliminate from the highest index down so indices stay stable.
	for i := p.Dim - 1; i >= 0; i-- {
		if keepSet[i] {
			continue
		}
		var e bool
		q, e = q.EliminateVar(i)
		exact = exact && e
		if !q.hasPoints() {
			// Definitely empty: return an empty polyhedron of the target
			// dimension.
			empty := NewPoly(len(keep))
			empty.Rational = p.Rational
			empty.Cons = append(empty.Cons, falseCon(len(keep)))
			return empty, exact
		}
	}
	return q, exact
}

// ProjectOutRange eliminates count consecutive variables starting at column
// start.
func (p *Poly) ProjectOutRange(start, count int) (*Poly, bool) {
	q := p.Clone()
	exact := true
	for i := start + count - 1; i >= start; i-- {
		var e bool
		q, e = q.EliminateVar(i)
		exact = exact && e
	}
	return q, exact
}

// hasPoints is a quick check: false means the constraint list already
// contains an unsatisfiable constant constraint.
func (p *Poly) hasPoints() bool {
	for _, c := range p.Cons {
		if linalg.IsZeroVec(c.Coef) {
			if c.Eq && c.K != 0 {
				return false
			}
			if !c.Eq && c.K < 0 {
				return false
			}
		}
	}
	return true
}

// IsEmptyRational reports whether the polyhedron has no rational points,
// established by full Fourier-Motzkin elimination. A rational-empty
// polyhedron has no integer points either; the converse may not hold (use
// SampleInt for integer-exact checks — for the affine systems in this
// project the two coincide). Variables are eliminated in a greedy order
// that prefers equality substitutions and minimizes the inequality-pair
// product, which keeps the optimizer's large coefficient spaces tractable.
func (p *Poly) IsEmptyRational() bool {
	q := p.shallow()
	if !q.Simplify() {
		return true
	}
	for q.Dim > 0 {
		q, _ = q.EliminateVar(q.cheapestVar())
		if !q.hasPoints() {
			return true
		}
	}
	return !q.hasPoints()
}

// cheapestVar picks the elimination variable: any variable appearing in an
// equality is free to substitute away; otherwise the one whose
// positive/negative inequality pair product is smallest.
func (p *Poly) cheapestVar() int {
	best, bestCost := p.Dim-1, int64(1)<<62
	for i := 0; i < p.Dim; i++ {
		var pos, neg int64
		inEq := false
		for _, c := range p.Cons {
			if c.Coef[i] == 0 {
				continue
			}
			if c.Eq {
				inEq = true
				break
			}
			if c.Coef[i] > 0 {
				pos++
			} else {
				neg++
			}
		}
		if inEq {
			return i
		}
		cost := pos * neg
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// IsEmptyInt reports whether the polyhedron has no integer points, by
// attempting to sample one with the given search radius for unbounded
// directions (see SampleInt, whose elimination chain also settles rational
// emptiness).
func (p *Poly) IsEmptyInt(radius int64) bool {
	_, ok := p.SampleInt(radius)
	return !ok
}

// ImpliedEqualities returns the affine hull of p as a list of equality
// constraints: the explicit equalities plus every inequality whose strict
// version is infeasible (e >= 0 with p ∩ {e >= 1} empty implies e == 0 on p).
func (p *Poly) ImpliedEqualities() []Constraint {
	var eqs []Constraint
	for _, c := range p.Cons {
		if c.Eq {
			eqs = append(eqs, c.Clone())
			continue
		}
		strict := p.Clone()
		strict.AddIneq(linalg.ScaleVec(1, c.Coef), c.K-1) // e - 1 >= 0
		if strict.IsEmptyRational() {
			eqs = append(eqs, Constraint{Coef: linalg.CloneVec(c.Coef), K: c.K, Eq: true})
		}
	}
	return eqs
}
