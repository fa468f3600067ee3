// Package polyhedra implements the integer-polyhedra layer RIOTShare builds
// on: basic polyhedra (conjunctions of affine equalities and inequalities
// over integer points), unions of basic polyhedra ("sets"), and the
// operations the optimizer needs — intersection, Fourier-Motzkin projection,
// exact integer subtraction, emptiness testing, integer-point sampling and
// enumeration. It replaces the isl library [Verdoolaege 2010] used by the
// paper.
//
// A constraint is stored as a coefficient vector over the space's variables
// plus a constant; an inequality constraint means expr >= 0 and an equality
// constraint means expr == 0, following the paper's matrix notation in §4.1.
package polyhedra

import (
	"fmt"
	"sort"
	"strings"

	"riotshare/internal/linalg"
)

// Constraint is a single affine constraint over a polyhedron's variables:
// Coef·x + K >= 0 (Eq=false) or Coef·x + K == 0 (Eq=true).
type Constraint struct {
	Coef []int64
	K    int64
	Eq   bool
}

// Clone returns a deep copy of the constraint.
func (c Constraint) Clone() Constraint {
	return Constraint{Coef: linalg.CloneVec(c.Coef), K: c.K, Eq: c.Eq}
}

// Eval evaluates the constraint's affine expression at the given point.
func (c Constraint) Eval(pt []int64) int64 {
	return linalg.Dot(c.Coef, pt) + c.K
}

// Holds reports whether the point satisfies the constraint.
func (c Constraint) Holds(pt []int64) bool {
	v := c.Eval(pt)
	if c.Eq {
		return v == 0
	}
	return v >= 0
}

// Poly is a basic polyhedron: the integer points of a conjunction of affine
// constraints over Dim variables. Names is optional debugging metadata with
// len == Dim when present.
//
// Rational marks a polyhedron whose points range over the rationals rather
// than the integers (e.g. Farkas multiplier spaces, Lemma 1): Simplify then
// skips integer-only reasoning (constant tightening and the GCD test), and
// elimination computes the exact rational shadow.
type Poly struct {
	Dim      int
	Names    []string
	Cons     []Constraint
	Rational bool
}

// NewPoly returns an unconstrained polyhedron (all of Z^dim).
func NewPoly(dim int, names ...string) *Poly {
	if len(names) != 0 && len(names) != dim {
		panic("polyhedra: names length mismatch")
	}
	return &Poly{Dim: dim, Names: append([]string(nil), names...)}
}

// Clone returns a deep copy.
func (p *Poly) Clone() *Poly {
	q := &Poly{Dim: p.Dim, Names: p.Names, Rational: p.Rational}
	q.Cons = make([]Constraint, len(p.Cons))
	for i, c := range p.Cons {
		q.Cons[i] = c.Clone()
	}
	return q
}

// Add appends a constraint (which must have len(Coef) == Dim).
func (p *Poly) Add(c Constraint) *Poly {
	if len(c.Coef) != p.Dim {
		panic(fmt.Sprintf("polyhedra: constraint dim %d != poly dim %d", len(c.Coef), p.Dim))
	}
	p.Cons = append(p.Cons, c)
	return p
}

// AddIneq adds coef·x + k >= 0.
func (p *Poly) AddIneq(coef []int64, k int64) *Poly {
	return p.Add(Constraint{Coef: linalg.CloneVec(coef), K: k})
}

// AddEq adds coef·x + k == 0.
func (p *Poly) AddEq(coef []int64, k int64) *Poly {
	return p.Add(Constraint{Coef: linalg.CloneVec(coef), K: k, Eq: true})
}

// AddRange adds lo <= x[i] <= hi.
func (p *Poly) AddRange(i int, lo, hi int64) *Poly {
	c1 := make([]int64, p.Dim)
	c1[i] = 1
	p.AddIneq(c1, -lo) // x[i] - lo >= 0
	c2 := make([]int64, p.Dim)
	c2[i] = -1
	p.AddIneq(c2, hi) // hi - x[i] >= 0
	return p
}

// Contains reports whether the integer point satisfies every constraint.
func (p *Poly) Contains(pt []int64) bool {
	if len(pt) != p.Dim {
		panic("polyhedra: point dimension mismatch")
	}
	for _, c := range p.Cons {
		if !c.Holds(pt) {
			return false
		}
	}
	return true
}

// Intersect returns a new polyhedron with the constraints of both operands.
func Intersect(a, b *Poly) *Poly {
	if a.Dim != b.Dim {
		panic("polyhedra: Intersect dimension mismatch")
	}
	out := a.Clone()
	for _, c := range b.Cons {
		out.Cons = append(out.Cons, c.Clone())
	}
	return out
}

// Simplify normalizes constraints in place: gcd-reduces them (with integer
// tightening of inequality constants), drops trivially-true constraints,
// deduplicates, and detects simple infeasibility. It reports whether the
// polyhedron is still possibly non-empty (false means definitely empty).
func (p *Poly) Simplify() bool {
	out := p.Cons[:0]
	idx := make(conIndex)
	for _, c := range p.Cons {
		if linalg.IsZeroVec(c.Coef) {
			if c.Eq && c.K != 0 {
				p.Cons = nil
				p.Cons = append(p.Cons, falseCon(p.Dim))
				return false
			}
			if !c.Eq && c.K < 0 {
				p.Cons = nil
				p.Cons = append(p.Cons, falseCon(p.Dim))
				return false
			}
			continue // trivially true
		}
		g := linalg.GcdVec(c.Coef)
		if g > 1 && !p.Rational {
			if c.Eq {
				if c.K%g != 0 {
					// GCD test: no integer solutions.
					p.Cons = nil
					p.Cons = append(p.Cons, falseCon(p.Dim))
					return false
				}
				c = Constraint{Coef: divVec(c.Coef, g), K: c.K / g, Eq: true}
			} else {
				// coef·x >= -K  =>  (coef/g)·x >= ceil(-K/g), i.e. K' = floor(K/g).
				c = Constraint{Coef: divVec(c.Coef, g), K: floorDiv(c.K, g)}
			}
		} else if g > 1 && p.Rational && c.Eq && c.K%g == 0 {
			c = Constraint{Coef: divVec(c.Coef, g), K: c.K / g, Eq: true}
		}
		if c.Eq {
			// Canonical sign: first nonzero coefficient positive.
			for _, x := range c.Coef {
				if x != 0 {
					if x < 0 {
						c = Constraint{Coef: linalg.ScaleVec(-1, c.Coef), K: -c.K, Eq: true}
					}
					break
				}
			}
		}
		if j := idx.find(out, c.Coef, c.Eq, false); j >= 0 {
			// Same coefficient vector: keep the tighter constant.
			if c.Eq {
				if out[j].K != c.K {
					p.Cons = nil
					p.Cons = append(p.Cons, falseCon(p.Dim))
					return false
				}
			} else if c.K < out[j].K {
				out[j].K = c.K
			}
			continue
		}
		idx.add(c, len(out))
		out = append(out, c)
	}
	p.Cons = out
	// Detect directly contradictory inequality pairs: e+k1>=0 and -e+k2>=0
	// with k1+k2 < 0; and inequality vs equality conflicts are left to the
	// emptiness test.
	for _, c := range p.Cons {
		if c.Eq {
			continue
		}
		if j := idx.find(p.Cons, c.Coef, false, true); j >= 0 {
			if c.K+p.Cons[j].K < 0 {
				p.Cons = nil
				p.Cons = append(p.Cons, falseCon(p.Dim))
				return false
			}
		}
	}
	return true
}

func falseCon(dim int) Constraint {
	return Constraint{Coef: make([]int64, dim), K: -1}
}

func divVec(v []int64, g int64) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = x / g
	}
	return out
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// conIndex finds a constraint list's entries by coefficient vector and
// kind, without building a key per lookup: it maps a hash to the first
// entry with it, and a lookup whose hash entry differs (a collision)
// falls back to a scan of the list.
type conIndex map[uint64]int

// conHash hashes a coefficient vector, negated if neg, and its kind (FNV-1a
// over whole words).
func conHash(coef []int64, eq, neg bool) uint64 {
	h := uint64(14695981039346656037)
	if eq {
		h ^= 1
		h *= 1099511628211
	}
	for _, x := range coef {
		if neg {
			x = -x
		}
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// sameCon reports whether c has kind eq and the coefficient vector coef,
// negated if neg.
func sameCon(c Constraint, coef []int64, eq, neg bool) bool {
	if c.Eq != eq {
		return false
	}
	for i, x := range coef {
		if neg {
			x = -x
		}
		if c.Coef[i] != x {
			return false
		}
	}
	return true
}

// add records cons[i] == c.
func (x conIndex) add(c Constraint, i int) {
	h := conHash(c.Coef, c.Eq, false)
	if _, ok := x[h]; !ok {
		x[h] = i
	}
}

// find returns the index in cons of the entry of kind eq with coefficient
// vector coef (negated if neg), or -1.
func (x conIndex) find(cons []Constraint, coef []int64, eq, neg bool) int {
	j, ok := x[conHash(coef, eq, neg)]
	if !ok {
		return -1
	}
	if sameCon(cons[j], coef, eq, neg) {
		return j
	}
	for j, c := range cons {
		if sameCon(c, coef, eq, neg) {
			return j
		}
	}
	return -1
}

// name returns a printable name for variable i.
func (p *Poly) name(i int) string {
	if len(p.Names) == p.Dim && p.Names[i] != "" {
		return p.Names[i]
	}
	return fmt.Sprintf("x%d", i)
}

// String renders the polyhedron as a conjunction of constraints.
func (p *Poly) String() string {
	if len(p.Cons) == 0 {
		return fmt.Sprintf("{Z^%d}", p.Dim)
	}
	parts := make([]string, 0, len(p.Cons))
	for _, c := range p.Cons {
		var terms []string
		for i, x := range c.Coef {
			switch {
			case x == 0:
			case x == 1:
				terms = append(terms, p.name(i))
			case x == -1:
				terms = append(terms, "-"+p.name(i))
			default:
				terms = append(terms, fmt.Sprintf("%d%s", x, p.name(i)))
			}
		}
		if c.K != 0 || len(terms) == 0 {
			terms = append(terms, fmt.Sprintf("%d", c.K))
		}
		expr := strings.Join(terms, "+")
		expr = strings.ReplaceAll(expr, "+-", "-")
		if c.Eq {
			parts = append(parts, expr+" = 0")
		} else {
			parts = append(parts, expr+" >= 0")
		}
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " and ") + "}"
}

// BindVar substitutes x[i] = v and returns a polyhedron of dimension Dim-1
// (column i removed).
func (p *Poly) BindVar(i int, v int64) *Poly { return p.BindVars(i, []int64{v}) }

// BindVars substitutes x[start+k] = vals[k] for every k and returns a
// polyhedron of dimension Dim-len(vals) (those columns removed). It neither
// simplifies nor tests the result.
func (p *Poly) BindVars(start int, vals []int64) *Poly {
	end := start + len(vals)
	q := &Poly{Dim: p.Dim - len(vals), Rational: p.Rational}
	if len(p.Names) == p.Dim {
		q.Names = append(append([]string(nil), p.Names[:start]...), p.Names[end:]...)
	}
	q.Cons = make([]Constraint, len(p.Cons))
	for j, c := range p.Cons {
		k := c.K
		for i, v := range vals {
			k += c.Coef[start+i] * v
		}
		q.Cons[j] = Constraint{
			Coef: append(append(make([]int64, 0, q.Dim), c.Coef[:start]...), c.Coef[end:]...),
			K:    k,
			Eq:   c.Eq,
		}
	}
	return q
}

// InsertVars returns a polyhedron over dim+count variables where count fresh
// unconstrained variables are inserted starting at position at (existing
// columns shift right). Used to move constraints between related spaces.
func (p *Poly) InsertVars(at, count int, names ...string) *Poly {
	if len(names) != 0 && len(names) != count {
		panic("polyhedra: InsertVars names mismatch")
	}
	q := &Poly{Dim: p.Dim + count, Rational: p.Rational}
	if len(p.Names) == p.Dim {
		q.Names = make([]string, 0, q.Dim)
		q.Names = append(q.Names, p.Names[:at]...)
		if len(names) == count {
			q.Names = append(q.Names, names...)
		} else {
			for i := 0; i < count; i++ {
				q.Names = append(q.Names, fmt.Sprintf("t%d", i))
			}
		}
		q.Names = append(q.Names, p.Names[at:]...)
	}
	for _, c := range p.Cons {
		coef := make([]int64, q.Dim)
		copy(coef, c.Coef[:at])
		copy(coef[at+count:], c.Coef[at:])
		q.Cons = append(q.Cons, Constraint{Coef: coef, K: c.K, Eq: c.Eq})
	}
	return q
}
