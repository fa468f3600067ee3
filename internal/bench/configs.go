// Package bench is the experiment harness: it builds the paper's three
// benchmark programs at the exact block-grid configurations of Tables 2-4
// (paper-scale logical byte sizes over scaled-down physical blocks,
// DESIGN.md substitution S5) and regenerates every table and figure of the
// evaluation section (§6).
package bench

import (
	"fmt"

	"riotshare/internal/ops"
	"riotshare/internal/prog"
)

// AddMulPaper is the §6.1 configuration (Table 2): A, B, C with 6000×4000
// blocks in a 12×12 grid (25.6 GB each); D with 4000×5000 blocks, 12×1
// (1.8 GB); E 6000×5000, 12×1 (2.7 GB).
func AddMulPaper() *prog.Program {
	return ops.AddMul(ops.AddMulConfig{
		N1: 12, N2: 12, N3: 1,
		ABBlock:   ops.Dims{Rows: 6, Cols: 4},
		DBlock:    ops.Dims{Rows: 4, Cols: 5},
		LogicalAB: ops.Dims{Rows: 6000, Cols: 4000},
		LogicalD:  ops.Dims{Rows: 4000, Cols: 5000},
	})
}

// AddMulClubsuit is the ♣ variant of §6.1: Plan 0 with A, B, C, E block
// rows enlarged from 6000 to 9000.
func AddMulClubsuit() *prog.Program {
	return ops.AddMul(ops.AddMulConfig{
		N1: 8, N2: 12, N3: 1,
		ABBlock:   ops.Dims{Rows: 9, Cols: 4},
		DBlock:    ops.Dims{Rows: 4, Cols: 5},
		LogicalAB: ops.Dims{Rows: 9000, Cols: 4000},
		LogicalD:  ops.Dims{Rows: 4000, Cols: 5000},
	})
}

// TwoMMPaperA is §6.2 Configuration A (Table 3): A 8000×7000 blocks in 6×6
// (15.2 GB); B, D 7000×3000 in 6×10 (9.2 GB); C, E 8000×3000 in 6×10
// (10.8 GB).
func TwoMMPaperA() *prog.Program {
	return ops.TwoMM(ops.TwoMMConfig{
		N1: 6, N2: 10, N3: 6, N4: 10,
		ABlock:   ops.Dims{Rows: 8, Cols: 7},
		BBlock:   ops.Dims{Rows: 7, Cols: 3},
		DBlock:   ops.Dims{Rows: 7, Cols: 3},
		LogicalA: ops.Dims{Rows: 8000, Cols: 7000},
		LogicalB: ops.Dims{Rows: 7000, Cols: 3000},
		LogicalD: ops.Dims{Rows: 7000, Cols: 3000},
	})
}

// TwoMMPaperB is §6.2 Configuration B (Table 3): A 2000×8000 in 18×6
// (12.8 GB); B 8000×6000 in 6×4 (8.4 GB); C 2000×6000 in 18×4 (6.4 GB);
// D 8000×7000 in 6×4 (10.0 GB); E 2000×7000 in 18×4 (7.6 GB).
func TwoMMPaperB() *prog.Program {
	return ops.TwoMM(ops.TwoMMConfig{
		N1: 18, N2: 4, N3: 6, N4: 4,
		ABlock:   ops.Dims{Rows: 2, Cols: 8},
		BBlock:   ops.Dims{Rows: 8, Cols: 6},
		DBlock:   ops.Dims{Rows: 8, Cols: 7},
		LogicalA: ops.Dims{Rows: 2000, Cols: 8000},
		LogicalB: ops.Dims{Rows: 8000, Cols: 6000},
		LogicalD: ops.Dims{Rows: 8000, Cols: 7000},
	})
}

// LinRegPaper is the §6.3 configuration (Table 4): X with 60000×4000
// blocks in a 25×1 grid (44.7 GB); Y, Ŷ, E 60000×400, 25×1 (4.5 GB); U, W
// single 4000×4000 blocks (122.1 MB); V, β̂ 4000×400 (12.2 MB).
func LinRegPaper() *prog.Program {
	return ops.LinReg(ops.LinRegConfig{
		N:        25,
		XBlock:   ops.Dims{Rows: 60, Cols: 40},
		YBlock:   ops.Dims{Rows: 60, Cols: 4},
		LogicalX: ops.Dims{Rows: 60000, Cols: 4000},
		LogicalY: ops.Dims{Rows: 60000, Cols: 400},
	})
}

// PaperProgram resolves the name of one of the paper's benchmark programs
// to its §6 configuration and the sharing-opportunity combinations its
// optimization is restricted to (nil = the full plan space). Only linreg is
// restricted, to LinRegSelectedPlans, because its full space is ~16k
// combinations; full lifts that.
func PaperProgram(name string, full bool) (*prog.Program, [][]string, error) {
	switch name {
	case "addmul":
		return AddMulPaper(), nil, nil
	case "twomm-a":
		return TwoMMPaperA(), nil, nil
	case "twomm-b":
		return TwoMMPaperB(), nil, nil
	case "linreg":
		if full {
			return LinRegPaper(), nil, nil
		}
		return LinRegPaper(), LinRegSelectedPlans(), nil
	}
	return nil, nil, fmt.Errorf("bench: unknown program %q (addmul, twomm-a, twomm-b, linreg)", name)
}

// TwoMMSelectedPlans are the four §6.2 plans shown in Figures 4(b)/5(b):
// Plan 0 (no sharing), Plan 1 (accumulate C and E in memory), Plan 2
// (Plan 1 plus sharing the read of A across the multiplications), Plan 3
// (share A, B and D reads instead of accumulating C and E).
func TwoMMSelectedPlans() [][]string {
	return [][]string{
		{"s1WC→s1RC", "s1WC→s1WC", "s2WE→s2RE", "s2WE→s2WE"},
		{"s1WC→s1RC", "s1WC→s1WC", "s2WE→s2RE", "s2WE→s2WE", "s1RA→s2RA"},
		{"s1RA→s2RA", "s1RB→s1RB", "s2RD→s2RD"},
	}
}

// LinRegSelectedPlans are the three §6.3 plans of Figure 6(b): Plan 0 (no
// sharing), Plan 1 (keep the accumulators U and V in memory during the two
// multiplications), Plan 2 (the best plan: additionally share the reads of
// X between the multiplications and pipeline every intermediate).
func LinRegSelectedPlans() [][]string {
	return [][]string{
		{"s1WU→s1RU", "s1WU→s1WU", "s2WV→s2RV", "s2WV→s2WV"},
		{
			"s1RX→s2RX",
			"s1WU→s1RU", "s1WU→s1WU", "s2WV→s2RV", "s2WV→s2WV",
			"s1WU→s3RU", "s2WV→s4RV", "s3WW→s4RW", "s4WBh→s5RBh",
			"s5WYh→s6RYh", "s6WEv→s7REv",
		},
	}
}

// AddMulScaled returns the §6.1 template at a different data scale
// (logical sizes multiplied by scale), for the scale-consistency
// experiment.
func AddMulScaled(scale int) *prog.Program {
	return ops.AddMul(ops.AddMulConfig{
		N1: 12, N2: 12, N3: 1,
		ABBlock:   ops.Dims{Rows: 6, Cols: 4},
		DBlock:    ops.Dims{Rows: 4, Cols: 5},
		LogicalAB: ops.Dims{Rows: 600 * scale, Cols: 400 * scale},
		LogicalD:  ops.Dims{Rows: 400 * scale, Cols: 500 * scale},
	})
}
