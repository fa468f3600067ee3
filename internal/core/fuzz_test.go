package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/codegen"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// randomProgram generates a random static-control program: a chain of 2-4
// blocked operators (elementwise combine, accumulate-multiply, aggregate)
// over randomly shaped block grids, where later operators consume earlier
// intermediates. The generator only produces well-formed programs; the
// pipeline must handle every one soundly.
func randomProgram(rng *rand.Rand, idx int) *prog.Program {
	p := prog.New(fmt.Sprintf("fuzz%d", idx), "n1", "n2")
	n1 := int64(2 + rng.Intn(3))
	n2 := int64(2 + rng.Intn(3))
	p.Bind("n1", n1).Bind("n2", n2)
	blk := func() (int, int) { return 2 + rng.Intn(3), 2 + rng.Intn(3) }
	br, bc := blk()

	newArr := func(name string, gr, gc int64, transient bool) {
		p.AddArray(&prog.Array{
			Name: name, BlockRows: br, BlockCols: bc,
			GridRows: int(gr), GridCols: int(gc), Transient: transient,
		})
	}
	newArr("In0", n1, n2, false)
	newArr("In1", n1, n2, false)

	// All ops but the last are shape-preserving (elementwise), so every read
	// stays within the grid upstream operators wrote; the final op is drawn
	// from all three kinds (elementwise, accumulating row-aggregate, or a
	// sliding window with two offset reads of the same array).
	nOps := 2 + rng.Intn(3)
	prev := "In0"
	for op := 0; op < nOps; op++ {
		out := fmt.Sprintf("T%d", op)
		last := op == nOps-1
		kind := 0
		if last {
			kind = rng.Intn(3)
		}
		switch kind {
		case 0: // elementwise: out[i,k] = prev[i,k] + In1[i,k]
			newArr(out, n1, n2, !last)
			p.NewNest()
			s := p.NewStatement(fmt.Sprintf("s%d", op+1), "i", "k")
			s.Range("i", prog.C(0), prog.V("n1")).Range("k", prog.C(0), prog.V("n2"))
			s.Access(prog.Read, prev, prog.V("i"), prog.V("k"))
			s.Access(prog.Read, "In1", prog.V("i"), prog.V("k"))
			s.Access(prog.Write, out, prog.V("i"), prog.V("k"))
			s.SetKernel("add")
		case 1: // row aggregate with accumulator: out[i,0] += f(prev[i,k])
			newArr(out, n1, 1, false)
			p.NewNest()
			s := p.NewStatement(fmt.Sprintf("s%d", op+1), "i", "k")
			s.Range("i", prog.C(0), prog.V("n1")).Range("k", prog.C(0), prog.V("n2"))
			s.Access(prog.Read, prev, prog.V("i"), prog.V("k"))
			s.AccessWhen(prog.Read, out, prog.V("i"), prog.C(0),
				[]prog.Cond{prog.GE(prog.V("k").AddK(-1))})
			s.Access(prog.Write, out, prog.V("i"), prog.C(0))
			s.SetKernel("scan-agg")
		default: // sliding window: out[i,k] = prev[i,k] + prev[i+1,k]
			newArr(out, n1-1, n2, false)
			p.NewNest()
			s := p.NewStatement(fmt.Sprintf("s%d", op+1), "i", "k")
			s.Range("i", prog.C(0), prog.V("n1").AddK(-1)).Range("k", prog.C(0), prog.V("n2"))
			s.Access(prog.Read, prev, prog.V("i"), prog.V("k"))
			s.Access(prog.Read, prev, prog.V("i").AddK(1), prog.V("k"))
			s.Access(prog.Write, out, prog.V("i"), prog.V("k"))
			s.SetKernel("add")
		}
		prev = out
	}
	return p
}

// scanKernelOK reports whether the generated program only chains
// shape-compatible operators (the generator occasionally produces chains
// the simple kernels cannot consume; those are skipped for execution but
// still exercised through analysis and search).
func executable(p *prog.Program) bool {
	for _, st := range p.Stmts {
		if st.Kernel == "add" {
			// add needs both read operands shaped like the output.
			w := st.WriteAccess()
			wa := p.Arrays[w.Array]
			for _, ac := range st.Accesses {
				if ac.Type == prog.Read {
					ra := p.Arrays[ac.Array]
					if ra.BlockRows != wa.BlockRows || ra.BlockCols != wa.BlockCols {
						return false
					}
				}
			}
		}
	}
	return true
}

// TestFuzzPipeline generates random programs and validates, for every plan
// the optimizer produces: (a) instance-level legality of the schedule,
// (b) the store serving exactly the predicted I/O, byte for byte, (c)
// identical final outputs across all plans of the same program.
func TestFuzzPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	programs := 0
	for idx := 0; programs < 12 && idx < 60; idx++ {
		p := randomProgram(rng, idx)
		res, err := Optimize(p, Options{BindParams: true, MaxCalls: 30000})
		if err != nil {
			t.Fatalf("program %s: %v", p.Name, err)
		}
		programs++
		// (a) legality of every plan at the instance level.
		for _, pl := range res.Plans {
			if err := res.Searcher.VerifyConcrete(pl.Plan.Schedule); err != nil {
				t.Fatalf("program %s plan %s: %v", p.Name, pl.Label, err)
			}
		}
		if !executable(p) {
			continue
		}
		// (b)+(c): execute up to 6 plans, compare store I/O and outputs.
		var refOutputs map[string][]float64
		limit := len(res.Plans)
		if limit > 6 {
			limit = 6
		}
		for _, pl := range res.Plans[:limit] {
			m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CreateAll(p); err != nil {
				t.Fatal(err)
			}
			if err := fillRandomInputs(p, m, 99); err != nil {
				t.Fatal(err)
			}
			before := m.Stats()
			eng := &exec.Engine{Store: m, Model: disk.PaperModel()}
			if _, err := eng.Run(pl.Timeline); err != nil {
				t.Fatalf("program %s plan %s: %v", p.Name, pl.Label, err)
			}
			io := m.Stats().Sub(before)
			var readBytes, writeBytes int64 // the prediction in physical bytes
			for name, v := range pl.Cost.PerArray {
				arr := p.Arrays[name]
				readBytes += v.ReadBytes / arr.LogicalBlockBytes * arr.PhysicalBlockBytes()
				writeBytes += v.WriteBytes / arr.LogicalBlockBytes * arr.PhysicalBlockBytes()
			}
			if io.ReadReqs != pl.Cost.ReadReqs || io.WriteReqs != pl.Cost.WriteReqs ||
				io.ReadBytes != readBytes || io.WriteBytes != writeBytes {
				t.Fatalf("program %s plan %s: store served (%d,%d) requests, (%d,%d) bytes; predicted (%d,%d), (%d,%d)",
					p.Name, pl.Label, io.ReadReqs, io.WriteReqs, io.ReadBytes, io.WriteBytes,
					pl.Cost.ReadReqs, pl.Cost.WriteReqs, readBytes, writeBytes)
			}
			outs := readOutputs(t, p, m, pl.Timeline)
			if refOutputs == nil {
				refOutputs = outs
			} else {
				for name, want := range refOutputs {
					got, ok := outs[name]
					if !ok {
						continue
					}
					for i := range want {
						d := got[i] - want[i]
						if d > 1e-9 || d < -1e-9 {
							t.Fatalf("program %s plan %s: output %s differs from plan %s",
								p.Name, pl.Label, name, res.Plans[0].Label)
						}
					}
				}
			}
			m.Close()
		}
	}
	if programs < 10 {
		t.Fatalf("generator produced too few programs: %d", programs)
	}
}

func fillRandomInputs(p *prog.Program, m *storage.Manager, seed int64) error {
	written := map[string]bool{}
	for _, st := range p.Stmts {
		if w := st.WriteAccess(); w != nil {
			written[w.Array] = true
		}
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		arr := p.Arrays[name]
		if written[name] {
			continue
		}
		for br := 0; br < arr.GridRows; br++ {
			for bc := 0; bc < arr.GridCols; bc++ {
				blk := newRandBlock(rng, arr.BlockRows, arr.BlockCols)
				if err := m.WriteBlock(name, int64(br), int64(bc), blk); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// readOutputs reads back every non-transient written array's blocks that
// the plan actually persisted to disk.
func readOutputs(t *testing.T, p *prog.Program, m *storage.Manager, tl *codegen.Timeline) map[string][]float64 {
	t.Helper()
	// Determine which blocks were physically written by this plan.
	persisted := map[prog.BlockID]bool{}
	for i, ev := range tl.Events {
		for ai, ac := range ev.St.Accesses {
			if ac.Type == prog.Write && tl.Actions[i][ai] == codegen.DoIO {
				r, c := ac.BlockAt(ev.X, tl.Params)
				persisted[prog.BlockID{Array: ac.Array, R: r, C: c}] = true
			}
		}
	}
	out := map[string][]float64{}
	for name, arr := range p.Arrays {
		if arr.Transient {
			continue
		}
		var data []float64
		complete := true
		for br := 0; br < arr.GridRows && complete; br++ {
			for bc := 0; bc < arr.GridCols && complete; bc++ {
				if !persisted[prog.BlockID{Array: name, R: int64(br), C: int64(bc)}] {
					complete = false
					break
				}
				blk, err := m.ReadBlock(name, int64(br), int64(bc))
				if err != nil {
					t.Fatal(err)
				}
				data = append(data, blk.Data...)
			}
		}
		if complete && len(data) > 0 {
			out[name] = data
		}
	}
	return out
}

func newRandBlock(rng *rand.Rand, rows, cols int) *blas.Matrix {
	blk := blas.NewMatrix(rows, cols)
	for i := range blk.Data {
		blk.Data[i] = rng.NormFloat64()
	}
	return blk
}

// A sliding window's two reads of one array give two sharing
// opportunities one display name (here s3WT2→s4RT2). Looking such a name
// up is refused rather than resolved to one of them: the named search
// fails naming both indices, and PlanBySharing finds no plan although a
// plan realizing each exists.
func TestAmbiguousShareNameRefused(t *testing.T) {
	const name = "s3WT2→s4RT2"
	p := randomProgram(rand.New(rand.NewSource(2)), 2)
	opt := Options{BindParams: true, MaxCalls: 30000}
	res, err := Optimize(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	for i, c := range res.Analysis.Shares {
		if c.String() == name {
			idx = append(idx, i)
		}
	}
	if len(idx) != 2 {
		t.Fatalf("%d opportunities named %s in %v, want 2", len(idx), name, res.Analysis.ShareStrings())
	}
	_, err = OptimizeSubsets(randomProgram(rand.New(rand.NewSource(2)), 2), opt, [][]string{{name}})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") || !strings.Contains(err.Error(), fmt.Sprint(idx)) {
		t.Fatalf("named search over %s: error %v, want one naming opportunities %v", name, err, idx)
	}
	realized := 0
	for _, pl := range res.Plans {
		if len(pl.Plan.Shares) == 1 && (pl.Plan.Shares[0] == idx[0] || pl.Plan.Shares[0] == idx[1]) {
			realized++
		}
	}
	if realized != 2 {
		t.Fatalf("%d one-opportunity plans labelled %s, want 2", realized, name)
	}
	if pl := res.PlanBySharing(name); pl != nil {
		t.Fatalf("PlanBySharing(%s) = plan %d, want nil", name, pl.Index)
	}
}
