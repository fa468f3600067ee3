package codegen

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"riotshare/internal/deps"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/sched"
)

func addMulSetup(t *testing.T, n1, n2, n3 int64) (*deps.Analysis, *sched.Searcher) {
	t.Helper()
	p := ops.AddMul(ops.AddMulConfig{
		N1: n1, N2: n2, N3: n3,
		ABBlock: ops.Dims{Rows: 4, Cols: 4},
		DBlock:  ops.Dims{Rows: 4, Cols: 4},
	})
	an, err := deps.Analyze(p, deps.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	return an, sched.NewSearcher(an)
}

func lower(t *testing.T, an *deps.Analysis, s *sched.Searcher, names ...string) *Timeline {
	t.Helper()
	var q []*deps.CoAccess
	var idxs []int
	for _, n := range names {
		c := an.FindShare(n)
		if c == nil {
			t.Fatalf("missing share %s", n)
		}
		q = append(q, c)
		for i, sh := range an.Shares {
			if sh == c {
				idxs = append(idxs, i)
			}
		}
	}
	schd, ok := s.FindSchedule(context.Background(), q)
	if !ok {
		t.Fatalf("combination %v infeasible", names)
	}
	tl, err := Lower(an, sched.Plan{Shares: idxs, Schedule: schd})
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestLowerBaselineOrder(t *testing.T) {
	an, s := addMulSetup(t, 2, 3, 1)
	tl := lower(t, an, s)
	// Event count: s1 has 6 instances, s2 has 6.
	if len(tl.Events) != 12 {
		t.Fatalf("want 12 events, got %d", len(tl.Events))
	}
	// Times strictly increasing.
	for i := 1; i < len(tl.Events); i++ {
		if prog.LexCompare(tl.Events[i-1].Time, tl.Events[i].Time) >= 0 {
			t.Fatal("events not strictly ordered")
		}
	}
	// Baseline has no holds and no memory/elided actions.
	if len(tl.Holds) != 0 {
		t.Fatalf("baseline should have no holds, got %d", len(tl.Holds))
	}
	for i, acts := range tl.Actions {
		for ai, a := range acts {
			if a == FromMemory {
				t.Fatalf("baseline event %d access %d is FromMemory", i, ai)
			}
		}
	}
}

func TestLowerGuardedAccessInactive(t *testing.T) {
	an, s := addMulSetup(t, 2, 3, 1)
	tl := lower(t, an, s)
	// s2's accumulator read (access 2) is inactive exactly at k=0.
	for i, ev := range tl.Events {
		if ev.St.Name != "s2" {
			continue
		}
		k := ev.X[2]
		got := tl.Actions[i][2]
		if k == 0 && got != Inactive {
			t.Fatalf("E read at k=0 should be Inactive, got %v", got)
		}
		if k > 0 && got == Inactive {
			t.Fatal("E read at k>0 should be active")
		}
	}
}

func TestLowerSharingActions(t *testing.T) {
	an, s := addMulSetup(t, 2, 3, 1)
	tl := lower(t, an, s, "s1WC→s2RC", "s2WE→s2RE", "s2WE→s2WE")
	var fromMem, elided int
	for i, acts := range tl.Actions {
		for ai, a := range acts {
			switch a {
			case FromMemory:
				fromMem++
			case Elided:
				if tl.Events[i].St.Accesses[ai].Type != prog.Write {
					t.Fatal("only writes can be elided")
				}
				elided++
			}
		}
	}
	// C reads (6) + E accumulator reads (2 per (i,j): k=1,2 → 4... n2=3:
	// reads at k=1,2 = 2 per (i,j), 2 i's, 1 j → 4) served from memory.
	if fromMem != 10 {
		t.Errorf("want 10 FromMemory actions, got %d", fromMem)
	}
	// E intermediate writes (k=0,1 for each of 2 blocks = 4) elided, plus
	// all 6 C writes dead (transient, never read from disk).
	if elided != 10 {
		t.Errorf("want 10 Elided actions, got %d", elided)
	}
	if len(tl.Holds) == 0 {
		t.Fatal("sharing plan must hold blocks")
	}
	for _, h := range tl.Holds {
		if h.EndEvent < h.StartEvent {
			t.Fatal("hold interval reversed")
		}
	}
}

// A W→W share without the corresponding W→R share must not elide writes
// whose value a disk read still needs.
func TestLowerWWAloneKeepsNeededWrites(t *testing.T) {
	an, s := addMulSetup(t, 2, 3, 1)
	tl := lower(t, an, s, "s2WE→s2WE")
	// The accumulator reads at k>=1 are disk reads here, so no E write
	// before the last k may be elided.
	for i, ev := range tl.Events {
		if ev.St.Name != "s2" {
			continue
		}
		if ev.X[2] < 2 && tl.Actions[i][3] == Elided {
			t.Fatalf("write at k=%d elided although its value is read from disk", ev.X[2])
		}
	}
}

func TestPseudocodeStructure(t *testing.T) {
	an, s := addMulSetup(t, 3, 4, 2)
	tl := lower(t, an, s, "s1WC→s2RC", "s2WE→s2RE", "s2WE→s2WE")
	code := tl.Pseudocode()
	if !strings.Contains(code, "for ") {
		t.Fatalf("no loops recovered:\n%s", code)
	}
	// The general-case plan (n3=2) has the fused j=0 phase and the j>=1
	// phase — two top-level sections, like Figure 1(b).
	if !strings.Contains(code, "s1") || !strings.Contains(code, "s2") {
		t.Fatalf("statements missing:\n%s", code)
	}
	t.Logf("\n%s", code)
}

func TestTimelineString(t *testing.T) {
	an, s := addMulSetup(t, 2, 2, 1)
	tl := lower(t, an, s)
	out := tl.String()
	if !strings.Contains(out, "events") {
		t.Fatal("String() should summarize")
	}
}

func TestBlockKeyDisambiguation(t *testing.T) {
	// Block Y[1,0] must not match block Yh[1,0].
	y, yh := prog.BlockID{Array: "Y", R: 1, C: 0}, prog.BlockID{Array: "Yh", R: 1, C: 0}
	if y == yh {
		t.Fatal("block IDs of different arrays must differ")
	}
	if y.String() != "Y[1,0]" || yh.String() != "Yh[1,0]" {
		t.Fatalf("block IDs print as %s and %s, want Y[1,0] and Yh[1,0]", y, yh)
	}
}

// Statement IDs equal modulo 256 are different statements: their
// instances must not share a key in Lower's event index.
func TestEvKeyKeepsTheWholeStatementID(t *testing.T) {
	x := []int64{1, 2}
	if evKey(0, x) == evKey(256, x) {
		t.Errorf("evKey(0, %v) == evKey(256, %v) = %q", x, x, evKey(0, x))
	}
	if evKey(1, []int64{23}) == evKey(12, []int64{3}) {
		t.Error("evKey(1, [23]) collides with evKey(12, [3])")
	}
}

// The plans of one analysis are lowered in parallel (core's evaluator), and
// each share's instance pairs are enumerated once for all of them: lowering
// every plan from several goroutines at once gives every goroutine the same
// timelines and the same pair slices, and a later ConcretePairs allocates
// nothing.
func TestLowerConcurrentEnumeratesSharesOnce(t *testing.T) {
	an, s := addMulSetup(t, 3, 4, 2)
	plans, err := s.Search(context.Background(), sched.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	tls := make([][]*Timeline, workers)
	firsts := make([][]*[]int64, workers) // per share, the first pair's source
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tls[w] = make([]*Timeline, len(plans))
			for k := range plans {
				i := (k + w*len(plans)/workers) % len(plans) // each worker starts elsewhere
				tl, err := Lower(an, plans[i])
				if err != nil {
					t.Error(err)
					return
				}
				tls[w][i] = tl
			}
			for _, c := range an.Shares {
				pairs, err := c.ConcretePairs()
				if err != nil || len(pairs) == 0 {
					t.Errorf("%s: %d pairs, error %v", c, len(pairs), err)
					return
				}
				firsts[w] = append(firsts[w], &pairs[0][0])
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(tls[w], tls[0]) {
			t.Fatalf("worker %d lowered other timelines than worker 0", w)
		}
		for i, c := range an.Shares {
			if firsts[w][i] != firsts[0][i] {
				t.Fatalf("%s: worker %d got other pairs than worker 0", c, w)
			}
		}
	}
	for _, c := range an.Shares {
		if n := testing.AllocsPerRun(10, func() { _, _ = c.ConcretePairs() }); n != 0 {
			t.Fatalf("%s: ConcretePairs allocates %v times once computed", c, n)
		}
	}
}
