package main

import (
	"fmt"
	"math"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
	"riotshare/internal/server"
	"riotshare/internal/storage"
)

// memBackend is an in-memory storage.Backend holding whole blocks in a map.
// The oracle hands it to server.FillInput so each shared input is
// regenerated exactly as the server synthesizes it, without a disk.
type memBackend struct {
	blocks map[string]*blas.Matrix
}

var _ storage.Backend = (*memBackend)(nil)

func newMemBackend() *memBackend { return &memBackend{blocks: map[string]*blas.Matrix{}} }

func memKey(array string, r, c int64) string { return fmt.Sprintf("%s[%d,%d]", array, r, c) }

func (m *memBackend) Create(*prog.Array) error      { return nil }
func (m *memBackend) CreateAll(*prog.Program) error { return nil }
func (m *memBackend) Drop(string, bool) error       { return nil }
func (m *memBackend) Stats() storage.Stats          { return storage.Stats{} }
func (m *memBackend) SetLatency(_, _ time.Duration) {}
func (m *memBackend) Close() error                  { return nil }
func (m *memBackend) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	m.blocks[memKey(array, r, c)] = blk
	return nil
}
func (m *memBackend) ReadBlock(array string, r, c int64) (*blas.Matrix, error) {
	blk, ok := m.blocks[memKey(array, r, c)]
	if !ok {
		return nil, fmt.Errorf("oracle: block %s was never written", memKey(array, r, c))
	}
	return blk, nil
}

// dense is a row-major dense matrix, the oracle's only numeric type.
type dense struct {
	rows, cols int
	data       []float64
}

func newDense(rows, cols int) *dense {
	return &dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// sum and l1 are the element sum the server reports as OutputInfo.Sum and
// the scale floating-point summation error is relative to.
func (d *dense) sum() (s float64) {
	for _, v := range d.data {
		s += v
	}
	return s
}

func (d *dense) l1() (s float64) {
	for _, v := range d.data {
		s += math.Abs(v)
	}
	return s
}

func (d *dense) maxAbs() (m float64) {
	for _, v := range d.data {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// oracle evaluates programs densely over regenerated inputs. Inputs are
// cached by name: every program over one shape shares them, as on the
// server.
type oracle struct {
	seed   int64
	inputs map[string]*dense
}

func newOracle(seed int64) *oracle { return &oracle{seed: seed, inputs: map[string]*dense{}} }

// input regenerates one shared input through server.FillInput.
func (o *oracle) input(m matrix) (*dense, error) {
	if d, ok := o.inputs[m.name]; ok {
		return d, nil
	}
	mem := newMemBackend()
	if err := server.FillInput(mem, progArray(m, m.name), o.seed); err != nil {
		return nil, err
	}
	d := newDense(m.blockRows*m.gridRows, m.blockCols*m.gridCols)
	for br := 0; br < m.gridRows; br++ {
		for bc := 0; bc < m.gridCols; bc++ {
			blk, err := mem.ReadBlock(m.name, int64(br), int64(bc))
			if err != nil {
				return nil, err
			}
			for i := 0; i < m.blockRows; i++ {
				copy(d.data[(br*m.blockRows+i)*d.cols+bc*m.blockCols:][:m.blockCols],
					blk.Data[i*m.blockCols:(i+1)*m.blockCols])
			}
		}
	}
	o.inputs[m.name] = d
	return d, nil
}

// evaluate runs the program's statements in order on dense matrices and
// returns the persistent outputs by name.
func (o *oracle) evaluate(p *program) (map[string]*dense, error) {
	vals := map[string]*dense{}
	for _, m := range p.inputs() {
		d, err := o.input(m)
		if err != nil {
			return nil, err
		}
		vals[m.name] = d
	}
	for _, st := range p.ops {
		a, b := vals[st.a], vals[st.b]
		if a == nil || b == nil {
			return nil, fmt.Errorf("oracle: %s reads %s or %s before it is written", p.name, st.a, st.b)
		}
		var dst *dense
		switch st.kind {
		case "add", "sub":
			if a.rows != b.rows || a.cols != b.cols {
				return nil, fmt.Errorf("oracle: %s: %s shape mismatch", p.name, st.kind)
			}
			dst = newDense(a.rows, a.cols)
			sign := 1.0
			if st.kind == "sub" {
				sign = -1
			}
			for i := range dst.data {
				dst.data[i] = a.data[i] + sign*b.data[i]
			}
		case "mul":
			if a.cols != b.rows {
				return nil, fmt.Errorf("oracle: %s: mul inner dimensions %d vs %d", p.name, a.cols, b.rows)
			}
			dst = newDense(a.rows, b.cols)
			for i := 0; i < a.rows; i++ {
				row := dst.data[i*dst.cols : (i+1)*dst.cols]
				for k := 0; k < a.cols; k++ {
					aik := a.data[i*a.cols+k]
					for j, bkj := range b.data[k*b.cols : (k+1)*b.cols] {
						row[j] += aik * bkj
					}
				}
			}
		default:
			return nil, fmt.Errorf("oracle: unknown op %q", st.kind)
		}
		vals[st.dst] = dst
	}
	out := map[string]*dense{}
	for _, m := range p.outputs() {
		out[m.name] = vals[m.name]
	}
	return out, nil
}

// oracleTol is the relative tolerance every checked number must meet.
const oracleTol = 1e-9

// within reports |got-want| <= oracleTol*scale; a NaN never passes.
func within(got, want, scale float64) bool {
	return math.Abs(got-want) <= oracleTol*scale
}

// expected is the oracle's prediction for one persistent output: the
// element sum the server reports, the L1 norm summation error scales with,
// and the values (with their magnitude) streamed blocks are checked against.
type expected struct {
	sum, l1, maxAbs float64
	values          *dense
}

// expectation maps a program's persistent outputs to their predictions.
type expectation map[string]expected

func (o *oracle) expect(p *program) (expectation, error) {
	outs, err := o.evaluate(p)
	if err != nil {
		return nil, err
	}
	e := expectation{}
	for name, d := range outs {
		e[name] = expected{sum: d.sum(), l1: math.Max(d.l1(), 1), maxAbs: math.Max(d.maxAbs(), 1), values: d}
	}
	return e, nil
}

// checkOutputs compares a finished query's OutputInfo sums.
func (e expectation) checkOutputs(outs []server.OutputInfo) error {
	if len(outs) != len(e) {
		return fmt.Errorf("oracle: %d outputs reported, %d expected", len(outs), len(e))
	}
	for _, o := range outs {
		want, ok := e[o.Array]
		if !ok {
			return fmt.Errorf("oracle: unexpected output %q", o.Array)
		}
		if !within(o.Sum, want.sum, want.l1) {
			return fmt.Errorf("oracle: output %s sum %.17g, want %.17g", o.Array, o.Sum, want.sum)
		}
	}
	return nil
}

// checkBlock compares one streamed block against the dense expectation.
func (e expectation) checkBlock(array string, br, bc int64, rows, cols int, data []float64) error {
	want, ok := e[array]
	if !ok {
		return fmt.Errorf("oracle: streamed block of unexpected array %q", array)
	}
	d := want.values
	r0, c0 := int(br)*rows, int(bc)*cols
	if br < 0 || bc < 0 || r0+rows > d.rows || c0+cols > d.cols || len(data) != rows*cols {
		return fmt.Errorf("oracle: streamed block %s[%d,%d] out of range", array, br, bc)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if got, w := data[i*cols+j], d.data[(r0+i)*d.cols+c0+j]; !within(got, w, want.maxAbs) {
				return fmt.Errorf("oracle: %s[%d,%d] element (%d,%d) = %.17g, want %.17g", array, br, bc, i, j, got, w)
			}
		}
	}
	return nil
}
