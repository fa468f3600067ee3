package exec

import (
	"fmt"
	"strings"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
)

// kernel is a statement's Kernel string resolved to its operation, operand
// count and gemm flags. A run resolves each statement once (resolveKernels)
// instead of re-parsing the string at every event.
type kernel struct {
	op           string // "" is an analysis-only statement: I/O pattern without compute
	operands     int
	ta, tb, self bool
}

// parseKernel resolves a Kernel string such as "add" or "gemm:ta:self".
func parseKernel(spec string) (kernel, error) {
	if spec == "" {
		return kernel{}, nil
	}
	parts := strings.Split(spec, ":")
	k := kernel{op: parts[0]}
	switch k.op {
	case "add", "sub", "join-agg":
		k.operands = 2
	case "inv", "rss", "scan-agg":
		k.operands = 1
	case "gemm":
		k.operands = 2
		for _, f := range parts[1:] {
			switch f {
			case "ta":
				k.ta = true
			case "tb":
				k.tb = true
			case "self":
				k.self, k.operands = true, 1
			default:
				return kernel{}, fmt.Errorf("unknown gemm flag %q", f)
			}
		}
	default:
		return kernel{}, fmt.Errorf("unknown kernel %q", spec)
	}
	return k, nil
}

// resolveKernels parses the kernel of every statement of p, indexed by
// Statement.ID.
func resolveKernels(p *prog.Program) ([]kernel, error) {
	ks := make([]kernel, len(p.Stmts))
	for i, st := range p.Stmts {
		k, err := parseKernel(st.Kernel)
		if err != nil {
			return nil, fmt.Errorf("exec: %s: %w", st.Name, err)
		}
		ks[i] = k
	}
	return ks, nil
}

// RunKernel dispatches a statement's in-core computation; see kernel.run.
func RunKernel(st *prog.Statement, in []*blas.Matrix, accRead, dst *blas.Matrix) error {
	k, err := parseKernel(st.Kernel)
	if err != nil {
		return err
	}
	return k.run(in, accRead, dst, false)
}

// run carries the kernel out. in holds the active read operands in access
// order (excluding the accumulator self-read), accRead the accumulator's
// prior value (nil at the first accumulation step or when the statement does
// not accumulate), and dst the output block; fresh says dst was allocated
// for this call and is still all zero. Accumulating kernels continue from
// accRead; others recompute dst from scratch.
func (k kernel) run(in []*blas.Matrix, accRead, dst *blas.Matrix, fresh bool) error {
	if k.op == "" {
		return nil
	}
	if dst == nil {
		return fmt.Errorf("kernel %q without write target", k.op)
	}
	if len(in) != k.operands {
		return fmt.Errorf("%s wants %d operands, got %d", k.op, k.operands, len(in))
	}
	prepAccum := func() {
		switch {
		case accRead == nil && !fresh:
			dst.Zero()
		case accRead != nil && accRead != dst:
			copy(dst.Data, accRead.Data)
		}
	}
	switch k.op {
	case "add":
		blas.Add(dst, in[0], in[1])
	case "sub":
		blas.Sub(dst, in[0], in[1])
	case "gemm":
		a, b := in[0], in[len(in)-1] // gemm:self multiplies its one operand by itself
		prepAccum()
		blas.Gemm(dst, a, k.ta, b, k.tb)
	case "inv":
		return blas.Inverse(dst, in[0])
	case "rss":
		prepAccum()
		blas.RSS(dst, in[0])
	case "scan-agg":
		prepAccum()
		var s float64
		for _, v := range in[0].Data {
			s += v
		}
		dst.Data[0] += s
	case "join-agg":
		prepAccum()
		// Count equi-matches between the operands' first columns (a simple
		// block nested-loop join aggregate).
		var matches float64
		for i := 0; i < in[0].Rows; i++ {
			for j := 0; j < in[1].Rows; j++ {
				if in[0].At(i, 0) == in[1].At(j, 0) {
					matches++
				}
			}
		}
		dst.Data[0] += matches
	}
	return nil
}
