package main

import (
	"fmt"

	"riotshare/internal/server"
)

// matrix is one blocked array of a benchmark program.
type matrix struct {
	name                 string
	blockRows, blockCols int
	gridRows, gridCols   int
	transient            bool
	// rowDim/colDim identify the symbolic extents of the block grid;
	// statements that must agree on an extent share one id, and each id
	// becomes one program parameter (n1, n2, …) as in internal/ops.
	rowDim, colDim int
}

// op is one whole-matrix statement: dst = a (+|-|·) b.
type op struct {
	kind      string // "add", "sub" or "mul"
	dst, a, b string
}

// program is the benchmark's own description of a query: a chain of
// add/sub/mul statements over blocked matrices. The server sees only the
// ProgramSpec JSON derived from it (spec); the oracle evaluates it densely
// (oracle.go) without touching exec or blas.
type program struct {
	name   string
	arrays []matrix
	ops    []op
}

// inputName keys a shared input by role and shape, so two programs over
// the same shape read the very same server-side array and it is filled
// once, during set-up.
func inputName(role string, blockRows, blockCols, gridRows, gridCols int) string {
	return fmt.Sprintf("%s_b%dx%d_g%dx%d", role, blockRows, blockCols, gridRows, gridCols)
}

// builder assembles a program; matrices are declared on first use. dims
// is a union-find over symbolic grid extents.
type builder struct {
	p    program
	dims []int
}

func newBuilder(name string) *builder {
	return &builder{p: program{name: name}}
}

func (b *builder) newDim() int {
	b.dims = append(b.dims, len(b.dims))
	return len(b.dims) - 1
}

func (b *builder) find(d int) int {
	for b.dims[d] != d {
		d = b.dims[d]
	}
	return d
}

func (b *builder) unify(x, y int) {
	x, y = b.find(x), b.find(y)
	if x > y {
		x, y = y, x
	}
	b.dims[y] = x
}

func (b *builder) declare(m matrix) string {
	for _, have := range b.p.arrays {
		if have.name == m.name {
			return m.name
		}
	}
	b.p.arrays = append(b.p.arrays, m)
	return m.name
}

// build numbers the extents in declaration order and returns the program.
func (b *builder) build() *program {
	rank := map[int]int{}
	num := func(d int) int {
		root := b.find(d)
		if _, ok := rank[root]; !ok {
			rank[root] = len(rank) + 1
		}
		return rank[root]
	}
	for i := range b.p.arrays {
		m := &b.p.arrays[i]
		m.rowDim, m.colDim = num(m.rowDim), num(m.colDim)
	}
	return &b.p
}

// input declares a shared input in the given role.
func (b *builder) input(role string, blockRows, blockCols, gridRows, gridCols int) string {
	return b.declare(matrix{
		name:      inputName(role, blockRows, blockCols, gridRows, gridCols),
		blockRows: blockRows, blockCols: blockCols, gridRows: gridRows, gridCols: gridCols,
		rowDim: b.newDim(), colDim: b.newDim(),
	})
}

// elementwise appends dst = a (+|-) b; dst takes a's shape.
func (b *builder) elementwise(kind, dst, a, bb string, transient bool) string {
	am, bm := b.p.matrix(a), b.p.matrix(bb)
	b.unify(am.rowDim, bm.rowDim)
	b.unify(am.colDim, bm.colDim)
	am.name, am.transient = dst, transient
	b.declare(am)
	b.p.ops = append(b.p.ops, op{kind: kind, dst: dst, a: a, b: bb})
	return dst
}

// mul appends dst = a·b.
func (b *builder) mul(dst, a, bb string, transient bool) string {
	am, bm := b.p.matrix(a), b.p.matrix(bb)
	b.unify(am.colDim, bm.rowDim)
	b.declare(matrix{
		name:      dst,
		blockRows: am.blockRows, blockCols: bm.blockCols,
		gridRows: am.gridRows, gridCols: bm.gridCols,
		transient: transient,
		rowDim:    am.rowDim, colDim: bm.colDim,
	})
	b.p.ops = append(b.p.ops, op{kind: "mul", dst: dst, a: a, b: bb})
	return dst
}

func (p *program) matrix(name string) matrix {
	for _, m := range p.arrays {
		if m.name == name {
			return m
		}
	}
	panic("benchmark: unknown matrix " + name)
}

// written reports whether some statement writes the matrix.
func (p *program) written(name string) bool {
	for _, o := range p.ops {
		if o.dst == name {
			return true
		}
	}
	return false
}

// inputs lists the matrices no statement writes, outputs the written
// non-transient ones, both in declaration order.
func (p *program) inputs() []matrix {
	var in []matrix
	for _, m := range p.arrays {
		if !p.written(m.name) {
			in = append(in, m)
		}
	}
	return in
}

func (p *program) outputs() []matrix {
	var out []matrix
	for _, m := range p.arrays {
		if p.written(m.name) && !m.transient {
			out = append(out, m)
		}
	}
	return out
}

func term(name string) server.ExprSpec {
	return server.ExprSpec{Terms: map[string]int64{name: 1}}
}

// spec renders the program as the statement-builder JSON the server
// accepts. Every statement is its own loop nest over the block grid, with
// one parameter per symbolic extent (bound to the grid size) — the same
// shape internal/ops builds, so the optimizer sees the paper's operators.
func (p *program) spec() *server.ProgramSpec {
	sp := &server.ProgramSpec{Name: p.name, Bind: map[string]int64{}}
	for _, m := range p.arrays {
		sp.Arrays = append(sp.Arrays, server.ArraySpec{
			Name:      m.name,
			BlockRows: m.blockRows, BlockCols: m.blockCols,
			GridRows: m.gridRows, GridCols: m.gridCols,
			Transient: m.transient,
		})
	}
	param := func(dim, v int) string {
		name := fmt.Sprintf("n%d", dim)
		if _, ok := sp.Bind[name]; !ok {
			sp.Params = append(sp.Params, name)
			sp.Bind[name] = int64(v)
		}
		return name
	}
	rng := func(v, hi string) server.RangeSpec {
		return server.RangeSpec{Var: v, Hi: term(hi)}
	}
	for si, o := range p.ops {
		st := server.StmtSpec{Name: fmt.Sprintf("s%d", si+1), NewNest: true}
		am, bm := p.matrix(o.a), p.matrix(o.b)
		switch o.kind {
		case "add", "sub":
			st.Vars = []string{"i", "k"}
			st.Ranges = []server.RangeSpec{
				rng("i", param(am.rowDim, am.gridRows)),
				rng("k", param(am.colDim, am.gridCols)),
			}
			st.Accesses = []server.AccessSpec{
				{Type: "read", Array: o.a, Row: term("i"), Col: term("k")},
				{Type: "read", Array: o.b, Row: term("i"), Col: term("k")},
				{Type: "write", Array: o.dst, Row: term("i"), Col: term("k")},
			}
			st.Kernel = o.kind
		case "mul":
			st.Vars = []string{"i", "j", "k"}
			st.Ranges = []server.RangeSpec{
				rng("i", param(am.rowDim, am.gridRows)),
				rng("j", param(bm.colDim, bm.gridCols)),
				rng("k", param(am.colDim, am.gridCols)),
			}
			st.Accesses = []server.AccessSpec{
				{Type: "read", Array: o.a, Row: term("i"), Col: term("k")},
				{Type: "read", Array: o.b, Row: term("k"), Col: term("j")},
				// The accumulator read exists only for k >= 1 (the
				// paper's footnote-1 guarded access).
				{Type: "read", Array: o.dst, Row: term("i"), Col: term("j"),
					When: []server.CondSpec{{Expr: server.ExprSpec{Terms: map[string]int64{"k": 1}, K: -1}}}},
				{Type: "write", Array: o.dst, Row: term("i"), Col: term("j")},
			}
			st.Kernel = "gemm"
		default:
			panic("benchmark: unknown op kind " + o.kind)
		}
		sp.Stmts = append(sp.Stmts, st)
	}
	return sp
}
