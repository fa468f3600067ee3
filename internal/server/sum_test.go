package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
)

// twoLevelSum folds a whole output matrix the way OutputInfo.Sum is
// defined: each block's elements row-major from 0, then the block sums in
// row-major block order.
func twoLevelSum(full *blas.Matrix, arr *prog.Array) float64 {
	sum := 0.0
	for br := 0; br < arr.GridRows; br++ {
		for bc := 0; bc < arr.GridCols; bc++ {
			blk := 0.0
			for r := 0; r < arr.BlockRows; r++ {
				for c := 0; c < arr.BlockCols; c++ {
					blk += full.At(br*arr.BlockRows+r, bc*arr.BlockCols+c)
				}
			}
			sum += blk
		}
	}
	return sum
}

// The two programs' inputs share names and shapes, so one server runs
// both (inputs are shared by name): A and B are 3×3 grids of 5×5 blocks,
// D a 3×2 grid of 5×4 blocks.

// sumAddMul is C = A+B; E = C·D.
func sumAddMul() *prog.Program {
	return ops.AddMul(ops.AddMulConfig{
		N1: 3, N2: 3, N3: 2,
		ABBlock: ops.Dims{Rows: 5, Cols: 5},
		DBlock:  ops.Dims{Rows: 5, Cols: 4},
	})
}

// sumTwoMM is C = A·B; E = A·D.
func sumTwoMM() *prog.Program {
	return ops.TwoMM(ops.TwoMMConfig{
		N1: 3, N2: 3, N3: 3, N4: 2,
		ABlock: ops.Dims{Rows: 5, Cols: 5},
		BBlock: ops.Dims{Rows: 5, Cols: 5},
		DBlock: ops.Dims{Rows: 5, Cols: 4},
	})
}

// streamProduct is the benchmark's remote-stream query: C = a·b over an
// 8×8 grid of 32×32 blocks, whose plan finishes C's blocks far from
// row-major order.
func streamProduct() *prog.Program {
	const block, grid = 32, 8
	p := prog.New("stream-mul", "n1", "n2", "n3")
	for _, name := range []string{"a", "b", "C"} {
		p.AddArray(&prog.Array{
			Name: name, BlockRows: block, BlockCols: block, GridRows: grid, GridCols: grid,
			LogicalBlockBytes: block * block * 8,
		})
	}
	ops.MatMulAcc(p, "s1", "C", "a", "b", false, false, "n1", "n2", "n3")
	p.Bind("n1", grid).Bind("n2", grid).Bind("n3", grid)
	return p
}

// TestOutputSumContract is the summary's property test. Over workers 1
// and 2, an unlimited and a tiny pool, local, 2-shard and loopback-blockd
// stores, and no stream or a stream opened at submit with retain=evict or
// retain=drop, every output's Sum is bit-identical across configurations,
// equals the two-level sum of the stored output (read back through
// Server.Output, or for retain=drop, which retires the stores, the
// streamed blocks), and the summary reads no block back
// (ResultReadBlocks == 0). addmul and twomm also run their plan that
// realizes no sharing: it writes each accumulator block to the store at
// every k, so a block is persisted before its final write too.
func TestOutputSumContract(t *testing.T) {
	programs := map[string]func() *prog.Program{
		"addmul": sumAddMul, "twomm": sumTwoMM, "stream-mul": streamProduct,
	}
	names := []string{"addmul", "twomm", "stream-mul"}
	plans := map[string][]*int{"stream-mul": {nil}} // nil: the cheapest plan
	for _, name := range []string{"addmul", "twomm"} {
		plans[name] = []*int{nil, &servedTable(t, programs[name]()).Baseline().Index}
	}
	stores := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"local", func(t *testing.T) Config { return Config{Dir: t.TempDir()} }},
		{"2-shard", func(t *testing.T) Config { return Config{Dir: t.TempDir(), Shards: 2} }},
		{"blockd", func(t *testing.T) Config {
			return Config{ShardAddrs: []string{startBlockd(t).Addr(), startBlockd(t).Addr()}, Replicas: 2}
		}},
	}
	pools := []struct {
		name  string
		bytes int64
	}{{"unlimited", 0}, {"tiny", 16 << 10}} // two of stream-mul's blocks
	want := map[string]float64{} // "program/array" → Sum of the first configuration
	for _, workers := range []int{1, 2} {
		for _, pool := range pools {
			for _, store := range stores {
				t.Run(fmt.Sprintf("w%d-%s-%s", workers, pool.name, store.name), func(t *testing.T) {
					cfg := store.cfg(t)
					cfg.Workers, cfg.PoolBytes, cfg.MaxConcurrent = workers, pool.bytes, 1
					cfg.Seed, cfg.Programs = testSeed, programs
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ts := httptest.NewServer(s.Handler())
					defer func() {
						ts.Close()
						s.Close()
					}()
					for _, name := range names {
						for _, plan := range plans[name] {
							for _, retain := range []string{"", RetainEvict, RetainDrop} {
								checkOutputSums(t, s, ts, Request{Program: name, Plan: plan}, retain, want)
							}
						}
					}
					if n := s.Stats().ResultReadBlocks; n != 0 {
						t.Errorf("the result summary read %d output blocks back, want 0", n)
					}
				})
			}
		}
	}
}

// checkOutputSums runs one request, streaming its result with the given
// retention ("" = no stream), and checks each output's Sum against the
// stored or streamed output and against want, which it fills on first
// sight of an output.
func checkOutputSums(t *testing.T, s *Server, ts *httptest.Server, req Request, retain string, want map[string]float64) {
	t.Helper()
	program := req.Program
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	var streamed map[string]*streamedArray
	if retain != "" {
		resp, err := http.Get(ts.URL + "/results/stream?retain=" + retain + "&id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s stream (retain=%s): HTTP %d, %v", program, retain, resp.StatusCode, err)
		}
		streamed = decodeStream(t, data)
	}
	st, err := s.Wait(id)
	if err != nil || st.State != StateDone {
		t.Fatalf("%s: %v, state %s (%s)", program, err, st.State, st.Err)
	}
	if req.Plan != nil && st.PlanLabel != "{}" {
		t.Fatalf("%s plan %d realizes %s, want no sharing", program, *req.Plan, st.PlanLabel)
	}
	p := s.cfg.Programs[program]()
	for _, o := range st.Outputs {
		arr := p.Arrays[o.Array]
		var full *blas.Matrix
		if retain == RetainDrop {
			full = streamed[o.Array].full
		} else if full, err = s.Output(id, o.Array); err != nil {
			t.Fatal(err)
		}
		if ref := twoLevelSum(full, arr); o.Sum != ref {
			t.Errorf("%s.%s (retain=%q): Sum %v, two-level sum of the stored output %v", program, o.Array, retain, o.Sum, ref)
		}
		if a := streamed[o.Array]; a != nil && a.sum != o.Sum {
			t.Errorf("%s.%s (retain=%q): streamed sum %v, Sum %v", program, o.Array, retain, a.sum, o.Sum)
		}
		key := program + "/" + o.Array
		if w, ok := want[key]; !ok {
			want[key] = o.Sum
		} else if o.Sum != w {
			t.Errorf("%s (retain=%q): Sum %v, %v in the first configuration", key, retain, o.Sum, w)
		}
	}
}

// TestOutputSumReadsUnwrittenBlock: an output block no event writes has no
// final write to sum it, so the summary reads it — once, counted in
// ResultReadBlocks — and Sum still equals the stored output's two-level
// sum. C is 2×1 blocks and its DAF is column-major, so an unwritten first
// block row lies in a hole before the written one, and an unwritten last
// block row lies past the end of the file; both read as zeros.
func TestOutputSumReadsUnwrittenBlock(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rows      RangeSpec // the statement's range over C's block rows
		unwritten int64
	}{
		{"first-row", RangeSpec{Var: "i", Lo: ExprSpec{K: 1}, Hi: ExprSpec{Terms: map[string]int64{"n1": 1}}}, 0},
		{"last-row", RangeSpec{Var: "i", Lo: ExprSpec{}, Hi: ExprSpec{K: 1}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := gridAddSpec(2, 4)
			spec.Arrays[2].GridCols = 1 // C is 2×1 blocks
			spec.Bind["n2"] = 1
			spec.Stmts[0].Ranges[0] = tc.rows
			s, err := New(Config{Dir: t.TempDir(), MaxConcurrent: 1, Seed: testSeed})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			cs := newCountingStore(s.store)
			s.pool = buffer.NewPool(cs, 0)

			id, err := s.Submit(Request{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Wait(id)
			if err != nil || st.State != StateDone || len(st.Outputs) != 1 {
				t.Fatalf("query %s: %v, state %s (%s), outputs %+v", id, err, st.State, st.Err, st.Outputs)
			}
			if n := s.Stats().ResultReadBlocks; n != 1 {
				t.Errorf("ResultReadBlocks = %d, want 1 (the unwritten block)", n)
			}
			unwritten := prog.BlockID{Array: id + ".C", R: tc.unwritten, C: 0}
			if n := cs.reads[unwritten]; n != 1 {
				t.Errorf("%s read %d times from the store, want once", unwritten, n)
			}
			full, err := s.Output(id, "C")
			if err != nil {
				t.Fatal(err)
			}
			p, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if ref := twoLevelSum(full, p.Arrays["C"]); st.Outputs[0].Sum != ref {
				t.Errorf("Sum %v, two-level sum of the stored output %v", st.Outputs[0].Sum, ref)
			}
		})
	}
}
