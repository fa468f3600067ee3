// Package ops is the operator library (Figure 2): it builds polyhedral
// programs (internal/prog) for the matrix operators the paper evaluates —
// addition, multiplication with optional transpose flags, inversion,
// residual sum of squares — and assembles the three benchmark programs of
// §6 (linear regression writes its residual E = Y − Ŷ as a nest of its
// own, on the sub kernel). Every operator is "opened up": its loop
// structure and accesses are exposed to the optimizer rather than hidden
// behind a black-box physical implementation (§1).
package ops

import (
	"fmt"

	"riotshare/internal/prog"
)

// Dims is a block shape in elements.
type Dims struct {
	Rows, Cols int
}

// Bytes returns the byte size of a block of this shape (float64 elements).
func (d Dims) Bytes() int64 { return int64(d.Rows) * int64(d.Cols) * 8 }

// Mat describes one matrix of a program: block shape, block-grid shape, and
// an optional logical block shape used for paper-scale I/O accounting
// (DESIGN.md substitution S5).
type Mat struct {
	Name      string
	Block     Dims // physical elements per block
	Grid      Dims // number of blocks per dimension
	Logical   Dims // logical block shape for I/O accounting; zero = Block
	Transient bool
}

func (m Mat) add(p *prog.Program) *prog.Array {
	logical := m.Logical
	if logical.Rows == 0 {
		logical = m.Block
	}
	return p.AddArray(&prog.Array{
		Name:              m.Name,
		BlockRows:         m.Block.Rows,
		BlockCols:         m.Block.Cols,
		GridRows:          m.Grid.Rows,
		GridCols:          m.Grid.Cols,
		LogicalBlockBytes: logical.Bytes(),
		Transient:         m.Transient,
	})
}

// MatAdd appends the blocked statement  dst[i,k] = a[i,k] + b[i,k]  as a new
// nest looping over the n1×n2 block grid (parameters pRows, pCols).
func MatAdd(p *prog.Program, name, dst, a, b, pRows, pCols string) *prog.Statement {
	p.NewNest()
	s := p.NewStatement(name, "i", "k")
	s.Range("i", prog.C(0), prog.V(pRows)).Range("k", prog.C(0), prog.V(pCols))
	s.Access(prog.Read, a, prog.V("i"), prog.V("k"))
	s.Access(prog.Read, b, prog.V("i"), prog.V("k"))
	s.Access(prog.Write, dst, prog.V("i"), prog.V("k"))
	s.SetKernel("add").SetNote(fmt.Sprintf("%s[i,k]=%s[i,k]+%s[i,k]", dst, a, b))
	return s
}

// MatMulAcc appends the blocked accumulating statement
//
//	dst[i,j] += a[i,k] * b[k,j]   (dst[i,j] = a·b at k==0)
//
// as a new nest over (i in pI, j in pJ, k in pK). TransA/TransB transpose
// the block subscripts of the operands (BLAS-style flags; the paper's
// linear-regression program passes transpose as a flag rather than a
// separate operator, §6.3). The accumulator read is guarded k >= 1,
// matching footnote 1 of the paper.
func MatMulAcc(p *prog.Program, name, dst, a, b string, transA, transB bool, pI, pJ, pK string) *prog.Statement {
	p.NewNest()
	s := p.NewStatement(name, "i", "j", "k")
	s.Range("i", prog.C(0), prog.V(pI)).Range("j", prog.C(0), prog.V(pJ)).Range("k", prog.C(0), prog.V(pK))
	ar, ac := prog.V("i"), prog.V("k")
	if transA {
		ar, ac = ac, ar
	}
	br, bc := prog.V("k"), prog.V("j")
	if transB {
		br, bc = bc, br
	}
	s.Access(prog.Read, a, ar, ac)
	s.Access(prog.Read, b, br, bc)
	s.AccessWhen(prog.Read, dst, prog.V("i"), prog.V("j"), []prog.Cond{prog.GE(prog.V("k").AddK(-1))})
	s.Access(prog.Write, dst, prog.V("i"), prog.V("j"))
	kernel := "gemm"
	if transA {
		kernel += ":ta"
	}
	if transB {
		kernel += ":tb"
	}
	s.SetKernel(kernel).SetNote(fmt.Sprintf("%s[i,j]+=%s·%s", dst, a, b))
	return s
}

// MatInv appends the single-block inversion  dst = a^{-1}  (used for U^{-1}
// in linear regression; both operands are 1×1 block grids).
func MatInv(p *prog.Program, name, dst, a string) *prog.Statement {
	p.NewNest()
	s := p.NewStatement(name) // depth-0 statement: a single instance
	s.Access(prog.Read, a, prog.C(0), prog.C(0))
	s.Access(prog.Write, dst, prog.C(0), prog.C(0))
	s.SetKernel("inv").SetNote(fmt.Sprintf("%s=%s^-1", dst, a))
	return s
}

// RSS appends the residual-sum-of-squares accumulation
//
//	dst[0,0] += colsum(e[r,0]^2)  over row blocks r
//
// with the accumulator read guarded r >= 1.
func RSS(p *prog.Program, name, dst, e, pRows string) *prog.Statement {
	p.NewNest()
	s := p.NewStatement(name, "r")
	s.Range("r", prog.C(0), prog.V(pRows))
	s.Access(prog.Read, e, prog.V("r"), prog.C(0))
	s.AccessWhen(prog.Read, dst, prog.C(0), prog.C(0), []prog.Cond{prog.GE(prog.V("r").AddK(-1))})
	s.Access(prog.Write, dst, prog.C(0), prog.C(0))
	s.SetKernel("rss").SetNote(fmt.Sprintf("%s+=RSS(%s[r])", dst, e))
	return s
}

// Scan appends a database-style table scan over the row blocks of a blocked
// relation (the paper notes table scans are static-control programs, §4.1;
// used by the mixed-workload example).
func Scan(p *prog.Program, name, rel, dst, pRows string) *prog.Statement {
	p.NewNest()
	s := p.NewStatement(name, "r")
	s.Range("r", prog.C(0), prog.V(pRows))
	s.Access(prog.Read, rel, prog.V("r"), prog.C(0))
	s.AccessWhen(prog.Read, dst, prog.C(0), prog.C(0), []prog.Cond{prog.GE(prog.V("r").AddK(-1))})
	s.Access(prog.Write, dst, prog.C(0), prog.C(0))
	s.SetKernel("scan-agg").SetNote(fmt.Sprintf("%s+=scan(%s[r])", dst, rel))
	return s
}

// NLJoin appends a blocked nested-loop join between the row blocks of two
// relations, accumulating matches into dst (§4.1 lists nested loop joins
// among static-control programs).
func NLJoin(p *prog.Program, name, dst, outer, inner, pOuter, pInner string) *prog.Statement {
	p.NewNest()
	s := p.NewStatement(name, "i", "j")
	s.Range("i", prog.C(0), prog.V(pOuter)).Range("j", prog.C(0), prog.V(pInner))
	s.Access(prog.Read, outer, prog.V("i"), prog.C(0))
	s.Access(prog.Read, inner, prog.V("j"), prog.C(0))
	s.AccessWhen(prog.Read, dst, prog.C(0), prog.C(0),
		[]prog.Cond{prog.GE(prog.V("i").Plus(prog.V("j")).AddK(-1))})
	s.Access(prog.Write, dst, prog.C(0), prog.C(0))
	s.SetKernel("join-agg").SetNote(fmt.Sprintf("%s+=%s⋈%s", dst, outer, inner))
	return s
}
