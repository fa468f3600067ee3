package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"riotshare/internal/codegen"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
)

// coldTemplate builds one of the serving benchmark's six cold-plan
// program shapes at grid extents n: statements of 2×2 elementwise combine
// ("add", "sub") or accumulate-multiply ("gemm") over 4×4 blocks, each in
// its own loop nest, with one parameter per grid extent. ops lists
// (kernel, dst, a, b); the first op's output is transient.
func coldTemplate(name string, n [3]int64, ops [][4]string) *prog.Program {
	p := prog.New(name, "n1", "n2", "n3")
	p.Bind("n1", n[0]).Bind("n2", n[1]).Bind("n3", n[2])
	// grid names each array's (row, col) extents by parameter index.
	grid := map[string][2]int{}
	arr := func(name string, rc [2]int, transient bool) {
		if _, ok := grid[name]; ok {
			return
		}
		grid[name] = rc
		p.AddArray(&prog.Array{Name: name, BlockRows: 4, BlockCols: 4,
			GridRows: int(n[rc[0]]), GridCols: int(n[rc[1]]), Transient: transient})
	}
	param := func(i int) prog.Expr { return prog.V(fmt.Sprintf("n%d", i+1)) }
	for si, op := range ops {
		kernel, dst, a, b := op[0], op[1], op[2], op[3]
		name := fmt.Sprintf("s%d", si+1)
		p.NewNest()
		arr(a, [2]int{0, 1}, false)
		if kernel == "gemm" { // dst[i,j] += a[i,k]·b[k,j], b is a's cols × n3
			arr(b, [2]int{grid[a][1], 2}, false)
			arr(dst, [2]int{grid[a][0], 2}, si == 0)
			s := p.NewStatement(name, "i", "j", "k")
			s.Range("i", prog.C(0), param(grid[a][0])).
				Range("j", prog.C(0), param(grid[b][1])).
				Range("k", prog.C(0), param(grid[a][1]))
			s.Access(prog.Read, a, prog.V("i"), prog.V("k"))
			s.Access(prog.Read, b, prog.V("k"), prog.V("j"))
			s.AccessWhen(prog.Read, dst, prog.V("i"), prog.V("j"), []prog.Cond{prog.GE(prog.V("k").AddK(-1))})
			s.Access(prog.Write, dst, prog.V("i"), prog.V("j"))
			s.SetKernel(kernel)
			continue
		}
		// dst[i,k] = a[i,k] ± b[i,k]
		arr(b, grid[a], false)
		arr(dst, grid[a], si == 0)
		s := p.NewStatement(name, "i", "k")
		s.Range("i", prog.C(0), param(grid[a][0])).Range("k", prog.C(0), param(grid[a][1]))
		s.Access(prog.Read, a, prog.V("i"), prog.V("k"))
		s.Access(prog.Read, b, prog.V("i"), prog.V("k"))
		s.Access(prog.Write, dst, prog.V("i"), prog.V("k"))
		s.SetKernel(kernel)
	}
	return p
}

// coldTemplates are the six shapes of the serving benchmark's cold-plan
// workload.
var coldTemplates = map[string][][4]string{
	"addmul":    {{"add", "C", "A", "B"}, {"gemm", "E", "C", "D"}},
	"submul":    {{"sub", "C", "A", "B"}, {"gemm", "E", "C", "D"}},
	"muladd":    {{"gemm", "C", "A", "B"}, {"add", "E", "C", "D"}},
	"mulsub":    {{"gemm", "C", "A", "B"}, {"sub", "E", "C", "D"}},
	"addsubmul": {{"add", "C", "A", "B"}, {"sub", "F", "C", "D"}, {"gemm", "G", "F", "H"}},
	"mulsubadd": {{"gemm", "C", "A", "B"}, {"sub", "F", "C", "D"}, {"add", "G", "F", "H"}},
}

// sameTable fails the test unless two optimizer results are the same
// plan table: the same dependences, sharing opportunities and dropped
// opportunities, and plan for plan the same label, sharing set, cost,
// schedule and lowered timeline (every event and action).
func sameTable(t *testing.T, what string, got, want *Result) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want []string
	}{
		{"shares", got.Analysis.ShareStrings(), want.Analysis.ShareStrings()},
		{"deps", got.Analysis.DepStrings(), want.Analysis.DepStrings()},
		{"dropped", []string{fmt.Sprint(got.Analysis.Dropped)}, []string{fmt.Sprint(want.Analysis.Dropped)}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s %v, want %v", what, c.name, c.got, c.want)
		}
	}
	if len(got.Plans) != len(want.Plans) {
		t.Fatalf("%s: %d plans, want %d", what, len(got.Plans), len(want.Plans))
	}
	if (got.Best == nil) != (want.Best == nil) || got.Best != nil && got.Best.Index != want.Best.Index {
		t.Fatalf("%s: best plan differs", what)
	}
	for i := range want.Plans {
		g, w := &got.Plans[i], &want.Plans[i]
		switch {
		case g.Label != w.Label || !reflect.DeepEqual(g.Plan.Shares, w.Plan.Shares):
			t.Fatalf("%s plan %d: %s %v, want %s %v", what, i, g.Label, g.Plan.Shares, w.Label, w.Plan.Shares)
		case !reflect.DeepEqual(g.Cost, w.Cost):
			t.Fatalf("%s plan %d %s: cost %+v, want %+v", what, i, w.Label, g.Cost, w.Cost)
		case !reflect.DeepEqual(g.Plan.Schedule, w.Plan.Schedule):
			t.Fatalf("%s plan %d %s: schedule differs", what, i, w.Label)
		case codegen.Diff(g.Timeline, w.Timeline) != "":
			t.Fatalf("%s plan %d %s: timeline differs: %s", what, i, w.Label, codegen.Diff(g.Timeline, w.Timeline))
		}
	}
}

// shapeCase is one program shape at several sizes: build returns the
// program at size i, fresh on every call.
type shapeCase struct {
	name  string
	sizes int
	build func(i int) *prog.Program
	// maxCalls caps the served search's leg (0 = the server's default),
	// for shapes whose complete search takes minutes.
	maxCalls int
	// signatures is the least number of analysis signatures the sizes
	// must span, so that the memos are shared across a signature change.
	signatures int
}

// checkShapeCase plans every size of the case twice with each search,
// the served one and greedy accretion: from scratch through the package
// functions, and from one Shape prepared at the first size and shared by
// all sizes, its schedule-search memos included. The plan tables must be
// identical, search for search.
func checkShapeCase(t *testing.T, tc shapeCase) {
	ctx := context.Background()
	sh, err := PrepareShape(ctx, tc.build(0), Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tc.sizes; i++ {
		for _, search := range []struct {
			name        string
			scratch, sh func(p *prog.Program) (*Result, error)
		}{
			{"served",
				func(p *prog.Program) (*Result, error) {
					return OptimizeCtx(ctx, p, Options{BindParams: true, MaxCalls: tc.maxCalls})
				},
				func(p *prog.Program) (*Result, error) {
					return sh.Optimize(ctx, p, Options{BindParams: true, MaxCalls: tc.maxCalls})
				}},
			{"greedy",
				func(p *prog.Program) (*Result, error) { return OptimizeGreedy(ctx, p, Options{BindParams: true}) },
				func(p *prog.Program) (*Result, error) {
					return sh.optimize(ctx, time.Now(), p, Options{BindParams: true}, greedy)
				}},
		} {
			what := fmt.Sprintf("%s size %d %v %s", tc.name, i, tc.build(i).ParamValues(), search.name)
			want, wantErr := search.scratch(tc.build(i))
			got, gotErr := search.sh(tc.build(i))
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("%s: error %v, from scratch %v", what, gotErr, wantErr)
			}
			if wantErr == nil {
				sameTable(t, what, got, want)
			}
		}
	}
	if len(sh.memos) < tc.signatures {
		t.Errorf("%d signatures over %d sizes, want at least %d", len(sh.memos), tc.sizes, tc.signatures)
	}
}

// A plan table served from a shared program shape equals the table
// computed from scratch: on the cold-plan templates at grid extents 1–4
// (extents 1 and 2 change which candidates survive the emptiness tests,
// so the sizes span several signatures), on the paper's §6 programs at
// several configurations, and on the fuzz generator's random programs.
func TestShapeTablesMatchScratch(t *testing.T) {
	extents := [][3]int64{{3, 3, 3}, {1, 1, 1}, {2, 2, 2}, {4, 4, 4}, {2, 3, 1}, {4, 1, 2}}
	var cases []shapeCase
	for name, tmpl := range coldTemplates {
		cases = append(cases, shapeCase{
			name: name, sizes: len(extents), signatures: 2,
			build: func(i int) *prog.Program { return coldTemplate(name, extents[i], tmpl) },
		})
	}
	addMul := [][3]int64{{12, 12, 1}, {12, 12, 2}, {3, 4, 2}, {2, 2, 1}}
	cases = append(cases, shapeCase{
		name: "addmul-paper", sizes: len(addMul), signatures: 2,
		build: func(i int) *prog.Program {
			return ops.AddMul(ops.AddMulConfig{
				N1: addMul[i][0], N2: addMul[i][1], N3: addMul[i][2],
				ABBlock: ops.Dims{Rows: 6, Cols: 4}, DBlock: ops.Dims{Rows: 4, Cols: 5},
				LogicalAB: ops.Dims{Rows: 6000, Cols: 4000}, LogicalD: ops.Dims{Rows: 4000, Cols: 5000},
			})
		},
	})
	twoMM := []func() *prog.Program{paperTwoMMA, paperTwoMMB}
	cases = append(cases, shapeCase{
		name: "twomm-paper", sizes: len(twoMM),
		build: func(i int) *prog.Program { return twoMM[i]() },
	})
	linReg := []int64{25, 4, 1}
	cases = append(cases, shapeCase{
		name: "linreg-paper", sizes: len(linReg), maxCalls: 300,
		build: func(i int) *prog.Program {
			return ops.LinReg(ops.LinRegConfig{
				N:      linReg[i],
				XBlock: ops.Dims{Rows: 60, Cols: 40}, YBlock: ops.Dims{Rows: 60, Cols: 4},
				LogicalX: ops.Dims{Rows: 60000, Cols: 4000}, LogicalY: ops.Dims{Rows: 60000, Cols: 400},
			})
		},
	})
	// The fuzz programs are TestFuzzPipeline's first six, rebound to
	// three sizes (their plan spaces grow fast with size).
	fuzzSizes := [][2]int64{{2, 2}, {1, 1}, {2, 3}}
	for idx := 0; idx < 6; idx++ {
		cases = append(cases, shapeCase{
			name: fmt.Sprintf("fuzz%d", idx), sizes: len(fuzzSizes), signatures: 1,
			build: func(i int) *prog.Program {
				rng := rand.New(rand.NewSource(123))
				var p *prog.Program
				for j := 0; j <= idx; j++ {
					p = randomProgram(rng, j)
				}
				return p.Bind("n1", fuzzSizes[i][0]).Bind("n2", fuzzSizes[i][1])
			},
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			checkShapeCase(t, tc)
		})
	}
}
