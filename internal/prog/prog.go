// Package prog defines the polyhedral intermediate representation of
// static-control programs (§4.1 of the paper): statements with parametric
// integer iteration domains, affine array-block accesses Φ, and affine
// schedules Θ. Programs are built either through the operator library
// (internal/ops) or directly through this package's builder API (the
// "user-defined operator" path).
package prog

import (
	"fmt"
	"strconv"

	"riotshare/internal/polyhedra"
)

// AccessType distinguishes reads from writes.
type AccessType uint8

const (
	// Read is an array-block read access.
	Read AccessType = iota
	// Write is an array-block write access. The paper assumes each statement
	// has at most one write access (§4.1); the builder enforces this.
	Write
)

// String returns "R" or "W".
func (t AccessType) String() string {
	if t == Write {
		return "W"
	}
	return "R"
}

// Array describes a disk-resident blocked array. Block sizes are fixed per
// array; the grid of blocks is what iteration domains range over.
type Array struct {
	Name string
	// BlockRows/BlockCols: elements per block, used by the execution engine
	// for real computation. GridRows/GridCols: number of blocks in each
	// dimension, used to allocate storage.
	BlockRows, BlockCols int
	GridRows, GridCols   int
	// LogicalBlockBytes is the byte size of one block used for I/O
	// accounting (paper-scale; may exceed BlockRows*BlockCols*8 when
	// running scaled-down data — DESIGN.md substitution S5).
	LogicalBlockBytes int64
	// Transient arrays are intermediates that need not survive the program;
	// a W→W-elided or pipelined block of a transient array may never touch
	// disk.
	Transient bool
}

// PhysicalBlockBytes returns the actual bytes of a stored block.
func (a *Array) PhysicalBlockBytes() int64 {
	return int64(a.BlockRows) * int64(a.BlockCols) * 8
}

// BlockID names block (R, C) of an array. It is the one block identity from
// the lowered plan down to the store: comparable, so every map of blocks
// keys by it directly, and printed only when a person reads it.
type BlockID struct {
	Array string
	R, C  int64
}

// String returns the block as "Array[R,C]", e.g. "Yh[1,0]".
func (b BlockID) String() string {
	return b.Array + "[" + strconv.FormatInt(b.R, 10) + "," + strconv.FormatInt(b.C, 10) + "]"
}

// Access is one array-block access of a statement: 〈s, t, A, Φ〉 in the
// paper's notation, optionally guarded by affine conditions on the
// statement's extended iteration vector (modelling the paper's footnote-1
// conditional reads, e.g. the accumulator read that exists only for k >= 1).
type Access struct {
	Type  AccessType
	Array string
	// Phi has one row per array dimension (always 2 here: block-row,
	// block-col); each row has length ds+np+1 (loop vars, params, constant).
	Phi [][]int64
	// When, if non-nil, restricts the instances performing this access; it
	// is a polyhedron over the statement's ds+np space.
	When *polyhedra.Poly
}

// Guarded reports whether the access happens at the given instance (with the
// given parameter values).
func (ac *Access) Guarded(x, params []int64) bool {
	if ac.When == nil {
		return true
	}
	pt := make([]int64, 0, len(x)+len(params))
	pt = append(pt, x...)
	pt = append(pt, params...)
	return ac.When.Contains(pt)
}

// BlockAt evaluates Φ at an instance, returning the accessed block
// coordinates.
func (ac *Access) BlockAt(x, params []int64) (int64, int64) {
	r := EvalRow(ac.Phi[0], x, params)
	c := EvalRow(ac.Phi[1], x, params)
	return r, c
}

// Statement is one statement of the program with its iteration domain.
type Statement struct {
	ID   int
	Name string
	// Vars are the loop variables surrounding the statement, outermost
	// first; ds = len(Vars).
	Vars []string
	// Nest and Pos locate the statement in the original program text: Nest
	// is the index of its top-level loop nest, Pos its textual position
	// within the nest body. They define the original schedule.
	Nest, Pos int
	// Domain is the iteration domain over ds+np columns (loop vars then
	// params), with the constant in each constraint's K.
	Domain   *polyhedra.Poly
	Accesses []Access
	// Kernel names the in-core computation the execution engine runs for
	// each instance (e.g. "add", "gemm", "inv"); operand binding follows the
	// access order. Empty for analysis-only programs.
	Kernel string
	// Note is the human-readable statement text, e.g. "C[i,k]=A[i,k]+B[i,k]".
	Note string

	prog *Program
}

// Ds returns the loop-nest depth of the statement.
func (s *Statement) Ds() int { return len(s.Vars) }

// Program is a static-control program over blocked arrays.
type Program struct {
	Name   string
	Params []string
	// Context constrains the parameters (over np columns); by default every
	// parameter is >= 1.
	Context *polyhedra.Poly
	Arrays  map[string]*Array
	Stmts   []*Statement
	// Binding optionally fixes parameter values for costing and execution.
	Binding map[string]int64

	nests int
}

// New creates a program with the given global parameters, each constrained
// to be >= 1 in the context.
func New(name string, params ...string) *Program {
	ctx := polyhedra.NewPoly(len(params), params...)
	for i := range params {
		coef := make([]int64, len(params))
		coef[i] = 1
		ctx.AddIneq(coef, -1)
	}
	return &Program{
		Name:    name,
		Params:  params,
		Context: ctx,
		Arrays:  make(map[string]*Array),
		Binding: make(map[string]int64),
	}
}

// NumParams returns the number of global parameters.
func (p *Program) NumParams() int { return len(p.Params) }

// AddArray registers an array; LogicalBlockBytes defaults to the physical
// size if unset.
func (p *Program) AddArray(a *Array) *Array {
	if a.LogicalBlockBytes == 0 {
		a.LogicalBlockBytes = a.PhysicalBlockBytes()
	}
	if _, dup := p.Arrays[a.Name]; dup {
		panic(fmt.Sprintf("prog: duplicate array %q", a.Name))
	}
	p.Arrays[a.Name] = a
	return a
}

// Bind fixes a parameter value for costing/execution.
func (p *Program) Bind(param string, v int64) *Program {
	if p.paramIndex(param) < 0 {
		panic(fmt.Sprintf("prog: unknown parameter %q", param))
	}
	p.Binding[param] = v
	return p
}

// ParamValues returns the bound parameter values in declaration order,
// panicking if any parameter is unbound.
func (p *Program) ParamValues() []int64 {
	out := make([]int64, len(p.Params))
	for i, name := range p.Params {
		v, ok := p.Binding[name]
		if !ok {
			panic(fmt.Sprintf("prog: parameter %q unbound", name))
		}
		out[i] = v
	}
	return out
}

func (p *Program) paramIndex(name string) int {
	for i, q := range p.Params {
		if q == name {
			return i
		}
	}
	return -1
}

// NewNest starts a new top-level loop nest and returns its index; statements
// created with NewStatement are placed in the most recent nest.
func (p *Program) NewNest() int {
	p.nests++
	return p.nests - 1
}

// NewStatement creates a statement in the current (most recent) nest with
// the given loop variables and an initially unconstrained domain. Pos is its
// textual order within the nest.
func (p *Program) NewStatement(name string, vars ...string) *Statement {
	if p.nests == 0 {
		p.nests = 1
	}
	nest := p.nests - 1
	pos := 0
	for _, s := range p.Stmts {
		if s.Nest == nest {
			pos++
		}
	}
	names := append(append([]string(nil), vars...), p.Params...)
	s := &Statement{
		ID:     len(p.Stmts),
		Name:   name,
		Vars:   append([]string(nil), vars...),
		Nest:   nest,
		Pos:    pos,
		Domain: polyhedra.NewPoly(len(vars)+len(p.Params), names...),
		prog:   p,
	}
	p.Stmts = append(p.Stmts, s)
	return s
}

// DTilde returns d̃ = max statement depth.
func (p *Program) DTilde() int {
	d := 0
	for _, s := range p.Stmts {
		if s.Ds() > d {
			d = s.Ds()
		}
	}
	return d
}

// Expr is an affine expression over a statement's loop variables and the
// program parameters, used by the builder API.
type Expr struct {
	Terms map[string]int64
	K     int64
}

// V returns the expression consisting of a single variable.
func V(name string) Expr { return Expr{Terms: map[string]int64{name: 1}} }

// C returns a constant expression.
func C(k int64) Expr { return Expr{K: k} }

// Plus returns e + f.
func (e Expr) Plus(f Expr) Expr {
	t := map[string]int64{}
	for k, v := range e.Terms {
		t[k] += v
	}
	for k, v := range f.Terms {
		t[k] += v
	}
	return Expr{Terms: t, K: e.K + f.K}
}

// Minus returns e - f.
func (e Expr) Minus(f Expr) Expr {
	t := map[string]int64{}
	for k, v := range e.Terms {
		t[k] += v
	}
	for k, v := range f.Terms {
		t[k] -= v
	}
	return Expr{Terms: t, K: e.K - f.K}
}

// AddK returns e + k.
func (e Expr) AddK(k int64) Expr { return Expr{Terms: e.Terms, K: e.K + k} }

// row converts the expression to a coefficient row of length ds+np+1 in the
// statement's extended space.
func (s *Statement) row(e Expr) []int64 {
	np := len(s.prog.Params)
	out := make([]int64, s.Ds()+np+1)
	out[s.Ds()+np] = e.K
	for name, coef := range e.Terms {
		idx := -1
		for i, v := range s.Vars {
			if v == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			pi := s.prog.paramIndex(name)
			if pi < 0 {
				panic(fmt.Sprintf("prog: unknown name %q in statement %s", name, s.Name))
			}
			idx = s.Ds() + pi
		}
		out[idx] += coef
	}
	return out
}

// rowNoConst drops the trailing constant, returning (coefs, K) suitable for
// a domain constraint.
func (s *Statement) rowNoConst(e Expr) ([]int64, int64) {
	r := s.row(e)
	n := len(r) - 1
	return r[:n], r[n]
}

// Range adds lo <= v < hi to the domain (hi exclusive, matching the paper's
// C-style loops).
func (s *Statement) Range(v string, lo, hi Expr) *Statement {
	c1, k1 := s.rowNoConst(V(v).Minus(lo))
	s.Domain.AddIneq(c1, k1)
	c2, k2 := s.rowNoConst(hi.Minus(V(v)).AddK(-1))
	s.Domain.AddIneq(c2, k2)
	return s
}

// Access adds an array access with block subscripts given by expressions
// (row, col).
func (s *Statement) Access(t AccessType, array string, rowIdx, colIdx Expr) *Statement {
	return s.AccessWhen(t, array, rowIdx, colIdx, nil)
}

// Cond is an affine guard condition e >= 0 or e == 0.
type Cond struct {
	E  Expr
	Eq bool
}

// GE returns the guard e >= 0.
func GE(e Expr) Cond { return Cond{E: e} }

// EQ returns the guard e == 0.
func EQ(e Expr) Cond { return Cond{E: e, Eq: true} }

// AccessWhen adds a guarded access; the guard conditions restrict the
// instances at which the access occurs.
func (s *Statement) AccessWhen(t AccessType, array string, rowIdx, colIdx Expr, conds []Cond) *Statement {
	if _, ok := s.prog.Arrays[array]; !ok {
		panic(fmt.Sprintf("prog: access to unknown array %q", array))
	}
	if t == Write {
		for _, a := range s.Accesses {
			if a.Type == Write {
				panic(fmt.Sprintf("prog: statement %s has a second write access (unsupported, §4.1)", s.Name))
			}
		}
	}
	ac := Access{
		Type:  t,
		Array: array,
		Phi:   [][]int64{s.row(rowIdx), s.row(colIdx)},
	}
	if len(conds) > 0 {
		names := append(append([]string(nil), s.Vars...), s.prog.Params...)
		w := polyhedra.NewPoly(s.Ds()+len(s.prog.Params), names...)
		for _, c := range conds {
			coef, k := s.rowNoConst(c.E)
			if c.Eq {
				w.AddEq(coef, k)
			} else {
				w.AddIneq(coef, k)
			}
		}
		ac.When = w
	}
	s.Accesses = append(s.Accesses, ac)
	return s
}

// SetKernel binds the in-core computation for execution.
func (s *Statement) SetKernel(k string) *Statement {
	s.Kernel = k
	return s
}

// SetNote attaches the human-readable statement text.
func (s *Statement) SetNote(n string) *Statement {
	s.Note = n
	return s
}

// WriteAccess returns the statement's write access, or nil.
func (s *Statement) WriteAccess() *Access {
	for i := range s.Accesses {
		if s.Accesses[i].Type == Write {
			return &s.Accesses[i]
		}
	}
	return nil
}

// DomainWithContext returns the iteration domain intersected with the
// program context lifted to the statement's ds+np space.
func (p *Program) DomainWithContext(s *Statement) *polyhedra.Poly {
	ctx := p.Context.InsertVars(0, s.Ds())
	return polyhedra.Intersect(s.Domain, ctx)
}

// Instances enumerates the statement's concrete iteration instances under
// the program's parameter binding (exact; block-level domains are small).
func (p *Program) Instances(s *Statement, limit int) ([][]int64, error) {
	vals := p.ParamValues()
	d := s.Domain.Clone()
	for i := len(p.Params) - 1; i >= 0; i-- {
		d = d.BindVar(s.Ds()+i, vals[i])
	}
	return d.Enumerate(limit)
}

// EvalRow evaluates an affine row (len(x)+len(params)+1 coefficients) at a
// concrete instance and parameter values.
func EvalRow(row, x, params []int64) int64 {
	if len(row) != len(x)+len(params)+1 {
		panic(fmt.Sprintf("prog: EvalRow length mismatch: row=%d x=%d params=%d", len(row), len(x), len(params)))
	}
	var v int64
	for i, xv := range x {
		v += row[i] * xv
	}
	for i, pv := range params {
		v += row[len(x)+i] * pv
	}
	return v + row[len(row)-1]
}
