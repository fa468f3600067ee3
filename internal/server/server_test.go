package server

import (
	"context"
	"reflect"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

const testSeed = 11

// smallAddMul is the test workload: C = A+B; E = C·D at a small block
// grid.
func smallAddMul() *prog.Program {
	return ops.AddMul(ops.AddMulConfig{
		N1: 3, N2: 4, N3: 2,
		ABBlock: ops.Dims{Rows: 6, Cols: 5},
		DBlock:  ops.Dims{Rows: 5, Cols: 4},
	})
}

// servedTable is the plan table a server with no plan budget serves p:
// core's Shape.Optimize, run to completion, every timeline kept.
func servedTable(t *testing.T, p *prog.Program) *core.Result {
	t.Helper()
	opt := core.Options{BindParams: true}
	sh, err := core.PrepareShape(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sh.Optimize(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// standaloneRun executes the cheapest plan of the table the server serves
// on a private manager without a pool — the reference the server's
// per-query results must match — and reports the result, the persistent
// outputs, and the physical read count.
func standaloneRun(t *testing.T, build func() *prog.Program) (exec.Result, map[string]*blas.Matrix, int64) {
	t.Helper()
	p := build()
	pl := &servedTable(t, p).Plans[0]
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	for _, st := range p.Stmts {
		if w := st.WriteAccess(); w != nil {
			written[w.Array] = true
		}
	}
	for name, arr := range p.Arrays {
		if !written[name] {
			if err := FillInput(m, arr, testSeed); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng := &exec.Engine{Store: m, Model: disk.PaperModel()}
	r, err := eng.Run(pl.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	physReads := m.Stats().ReadReqs
	outs := map[string]*blas.Matrix{}
	for name, arr := range p.Arrays {
		if written[name] && !arr.Transient {
			full, err := readFullArray(m, arr, name)
			if err != nil {
				t.Fatal(err)
			}
			outs[name] = full
		}
	}
	return r, outs, physReads
}

// stripTimes drops the fields that legitimately vary between runs
// (kernel wall times and scheduling-dependent prefetch counts).
func stripTimes(r exec.Result) exec.Result {
	r.CPUTime = 0
	r.StageTimes = nil
	r.PrefetchIssued = 0
	r.PrefetchInline = 0
	return r
}

// sameResult compares two execution results modulo timing fields.
func sameResult(a, b exec.Result) bool {
	return reflect.DeepEqual(stripTimes(a), stripTimes(b))
}

// TestConcurrentQueriesShareOnePool is the subsystem's acceptance test:
// two queries of the same program run concurrently through the admission
// layer over one shared pool, and (a) each query's ExecResult volumes and
// output numerics are identical to a standalone sequential run, while
// (b) cross-query sharing shows up as pool hits and as physical reads
// strictly below the sum of standalone physical reads.
func TestConcurrentQueriesShareOnePool(t *testing.T) {
	wantRes, wantOuts, standaloneReads := standaloneRun(t, smallAddMul)
	if standaloneReads == 0 {
		t.Fatal("standalone run did no physical reads")
	}

	s, err := New(Config{
		Dir:           t.TempDir(),
		MaxConcurrent: 2,
		Seed:          testSeed,
		Programs:      map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id1, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := s.Wait(id1)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Wait(id2)
	if err != nil {
		t.Fatal(err)
	}
	stats := s.Stats() // snapshot before Output() adds physical reads

	for _, st := range []QueryStatus{st1, st2} {
		if st.State != StateDone {
			t.Fatalf("query %s: state %s, err %q", st.ID, st.State, st.Err)
		}
		if st.Result == nil {
			t.Fatalf("query %s: no result", st.ID)
		}
		if !sameResult(*st.Result, wantRes) {
			t.Errorf("query %s: ExecResult diverged from standalone\nserver:     %+v\nstandalone: %+v",
				st.ID, stripTimes(*st.Result), stripTimes(wantRes))
		}
	}

	// (b) Cross-query sharing: pool hits on shared input blocks, and total
	// physical reads strictly below two standalone runs.
	if stats.Pool.Hits == 0 {
		t.Errorf("pool hits = 0, want > 0 (stats: %+v)", stats.Pool)
	}
	if stats.Store.ReadReqs >= 2*standaloneReads {
		t.Errorf("physical reads = %d, want < 2x standalone (%d)", stats.Store.ReadReqs, 2*standaloneReads)
	}

	// (a) Output numerics bit-identical to standalone, per query.
	for _, id := range []string{id1, id2} {
		for name, want := range wantOuts {
			got, err := s.Output(id, name)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("query %s: %s[%d] = %v, want %v (not bit-identical)", id, name, i, got.Data[i], want.Data[i])
				}
			}
		}
	}

	// The identical second submission must have hit the plan cache.
	if stats.PlanCacheHits == 0 {
		t.Errorf("plan cache hits = 0, want > 0")
	}
}

// The pipelined engine behind the server must preserve the same
// standalone-identical results over the shared pool.
func TestServerParallelWorkersMatchStandalone(t *testing.T) {
	wantRes, wantOuts, _ := standaloneRun(t, smallAddMul)
	s, err := New(Config{
		Dir:           t.TempDir(),
		MaxConcurrent: 2,
		Workers:       4,
		Seed:          testSeed,
		Programs:      map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id1, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{id1, id2} {
		st, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("query %s: state %s, err %q", st.ID, st.State, st.Err)
		}
		if !sameResult(*st.Result, wantRes) {
			t.Errorf("query %s (workers=4): ExecResult diverged\nserver:     %+v\nstandalone: %+v",
				st.ID, stripTimes(*st.Result), stripTimes(wantRes))
		}
		for name, want := range wantOuts {
			got, err := s.Output(id, name)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("query %s: %s[%d] = %v, want %v", id, name, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// DAF is the only block format and LRU the only pool policy: any other
// Config.Format or Config.PoolPolicy is refused, never served as DAF or
// LRU.
func TestNewRefusesUnknownFormat(t *testing.T) {
	for _, cfg := range []Config{
		{Dir: t.TempDir(), Format: storage.FormatDAF + 1},
		{Dir: t.TempDir(), PoolPolicy: "segmented"},
	} {
		s, err := New(cfg)
		if err == nil {
			s.Close()
			t.Errorf("New accepted format %d, pool policy %q: neither exists", int(cfg.Format), cfg.PoolPolicy)
		}
	}
}

// Admission must serialize at K=1 and fail a plan that cannot ever fit the
// global memory cap.
func TestAdmissionLimits(t *testing.T) {
	s, err := New(Config{
		Dir:            t.TempDir(),
		MaxConcurrent:  1,
		GlobalMemBytes: 1, // nothing fits
		Seed:           testSeed,
		Programs:       map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed (global cap 1 byte)", st.State)
	}
}

// An uncontended admission waits microseconds; the tenant's average wait
// must report that, not truncate the summed wait to whole milliseconds.
func TestAvgQueueWaitSubMillisecond(t *testing.T) {
	s, err := New(Config{
		Dir:      t.TempDir(),
		Seed:     testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(Request{Program: "addmul-small", Tenant: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("state %v, err %v (%s)", st.State, err, st.Err)
	}
	if got := s.Stats().Tenants["solo"].AvgQueueWaitMs; got <= 0 {
		t.Fatalf("AvgQueueWaitMs = %v after one admitted query, want > 0", got)
	}
}

// A per-query memory cap steers plan selection to a plan that fits, and
// the chosen plan's peak respects it.
func TestPerQueryMemCapSelectsFittingPlan(t *testing.T) {
	res := servedTable(t, smallAddMul())
	// Pick a cap below the cheapest plan's peak but above the baseline's.
	base := res.Baseline()
	best := &res.Plans[0]
	if base.Cost.PeakMemoryBytes >= best.Cost.PeakMemoryBytes {
		t.Skip("cheapest plan already at baseline memory")
	}
	capMB := (base.Cost.PeakMemoryBytes >> 20) + 1

	s, err := New(Config{
		Dir:      t.TempDir(),
		Seed:     testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(Request{Program: "addmul-small", MemCapMB: capMB})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, err %q", st.State, st.Err)
	}
	if st.Result.PeakMemoryBytes > capMB<<20 {
		t.Fatalf("peak %d exceeds the %dMB cap", st.Result.PeakMemoryBytes, capMB)
	}
}

// A statement-builder JSON spec must optimize and execute end to end:
// C = A + B over a 2x2 grid, verified against the deterministic input
// fill.
func TestSpecSubmission(t *testing.T) {
	spec := &ProgramSpec{
		Name:   "addspec",
		Params: []string{"n1", "n2"},
		Bind:   map[string]int64{"n1": 2, "n2": 2},
		Arrays: []ArraySpec{
			{Name: "A", BlockRows: 4, BlockCols: 4, GridRows: 2, GridCols: 2},
			{Name: "B", BlockRows: 4, BlockCols: 4, GridRows: 2, GridCols: 2},
			{Name: "C", BlockRows: 4, BlockCols: 4, GridRows: 2, GridCols: 2},
		},
		Stmts: []StmtSpec{{
			Name: "s1",
			Vars: []string{"i", "j"},
			Ranges: []RangeSpec{
				{Var: "i", Lo: ExprSpec{}, Hi: ExprSpec{Terms: map[string]int64{"n1": 1}}},
				{Var: "j", Lo: ExprSpec{}, Hi: ExprSpec{Terms: map[string]int64{"n2": 1}}},
			},
			Accesses: []AccessSpec{
				{Type: "read", Array: "A", Row: ExprSpec{Terms: map[string]int64{"i": 1}}, Col: ExprSpec{Terms: map[string]int64{"j": 1}}},
				{Type: "read", Array: "B", Row: ExprSpec{Terms: map[string]int64{"i": 1}}, Col: ExprSpec{Terms: map[string]int64{"j": 1}}},
				{Type: "write", Array: "C", Row: ExprSpec{Terms: map[string]int64{"i": 1}}, Col: ExprSpec{Terms: map[string]int64{"j": 1}}},
			},
			Kernel: "add",
			Note:   "C[i,j]=A[i,j]+B[i,j]",
		}},
	}
	s, err := New(Config{Dir: t.TempDir(), Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(Request{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, err %q", st.State, st.Err)
	}

	// Reference: the same deterministic fill on a scratch manager.
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	arrA := &prog.Array{Name: "A", BlockRows: 4, BlockCols: 4, GridRows: 2, GridCols: 2}
	arrB := &prog.Array{Name: "B", BlockRows: 4, BlockCols: 4, GridRows: 2, GridCols: 2}
	for _, arr := range []*prog.Array{arrA, arrB} {
		if err := m.Create(arr); err != nil {
			t.Fatal(err)
		}
		if err := FillInput(m, arr, testSeed); err != nil {
			t.Fatal(err)
		}
	}
	fullA, err := readFullArray(m, arrA, "A")
	if err != nil {
		t.Fatal(err)
	}
	fullB, err := readFullArray(m, arrB, "B")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Output(id, "C")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if want := fullA.Data[i] + fullB.Data[i]; got.Data[i] != want {
			t.Fatalf("C[%d] = %v, want %v", i, got.Data[i], want)
		}
	}
}

// Malformed specs and unknown programs must fail at submission with a
// useful error.
func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(Request{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := s.Submit(Request{Program: "nope"}); err == nil {
		t.Error("unknown program accepted")
	}
	if _, err := s.Submit(Request{Spec: &ProgramSpec{Name: "x"}}); err == nil {
		t.Error("statement-less spec accepted")
	}
	if _, err := s.Submit(Request{Program: "addmul", Spec: &ProgramSpec{}}); err == nil {
		t.Error("program+spec accepted")
	}
}
