package deps

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"riotshare/internal/ops"
	"riotshare/internal/prog"
)

func addMulProgram(n1, n2, n3 int64) *prog.Program {
	return ops.AddMul(ops.AddMulConfig{
		N1: n1, N2: n2, N3: n3,
		ABBlock: ops.Dims{Rows: 8, Cols: 8},
		DBlock:  ops.Dims{Rows: 8, Cols: 8},
	})
}

func analyzeAddMul(t *testing.T, n1, n2, n3 int64, bind bool) *Analysis {
	t.Helper()
	an, err := Analyze(addMulProgram(n1, n2, n3), Options{BindParams: bind})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func shareSet(an *Analysis) map[string]bool {
	m := make(map[string]bool)
	for _, s := range an.Shares {
		m[s.String()] = true
	}
	return m
}

func depSet(an *Analysis) map[string]bool {
	m := make(map[string]bool)
	for _, d := range an.Deps {
		m[d.String()] = true
	}
	return m
}

// §4.3: s1WC→s2RC is both a dependence and a sharing opportunity;
// s2RC→s1WC is neither (empty extent).
func TestAddMulCAnalysis(t *testing.T) {
	an := analyzeAddMul(t, 3, 4, 2, false)
	shares, deps := shareSet(an), depSet(an)
	if !deps["s1WC→s2RC"] {
		t.Errorf("missing dependence s1WC→s2RC; have %v", an.DepStrings())
	}
	if !shares["s1WC→s2RC"] {
		t.Errorf("missing share s1WC→s2RC; have %v", an.ShareStrings())
	}
	if deps["s2RC→s1WC"] || shares["s2RC→s1WC"] {
		t.Error("s2RC→s1WC should be empty (no s2 instance precedes s1)")
	}
}

// Example 1's discussion: expected sharing opportunities for n3 >= 2
// include the accumulator self-shares on E, the D self-share, the C
// pipeline, and the C re-read self-share.
func TestAddMulShareInventoryParametric(t *testing.T) {
	an := analyzeAddMul(t, 3, 4, 2, false)
	shares := shareSet(an)
	for _, want := range []string{
		"s1WC→s2RC", // pipeline C from s1 to s2
		"s2WE→s2RE", // accumulator read reuse
		"s2WE→s2WE", // accumulator write elision
		"s2RD→s2RD", // D re-read across i
		"s2RC→s2RC", // C re-read across j (exists since n3 can be >= 2)
	} {
		if !shares[want] {
			t.Errorf("missing sharing opportunity %s; have %v", want, an.ShareStrings())
		}
	}
}

// §6.1: "because n3 = 1, sharing opportunity s2RC→s2RC does not exist".
func TestAddMulShareInventoryN3Eq1(t *testing.T) {
	an := analyzeAddMul(t, 3, 4, 1, true)
	shares := shareSet(an)
	if shares["s2RC→s2RC"] {
		t.Error("s2RC→s2RC should not exist when n3=1")
	}
	for _, want := range []string{"s1WC→s2RC", "s2WE→s2WE", "s2RD→s2RD"} {
		if !shares[want] {
			t.Errorf("missing %s with n3=1; have %v", want, an.ShareStrings())
		}
	}
	// E accumulator self-shares require n2 >= 2 (present here).
	if !shares["s2WE→s2RE"] {
		t.Errorf("missing s2WE→s2RE; have %v", an.ShareStrings())
	}
}

// One Prepared binds at every size of its shape: at n3 = 1 it drops
// s2RC→s2RC as Analyze does, the signature tells the two sizes apart,
// and a program of another shape is refused.
func TestPreparedBindsEverySize(t *testing.T) {
	pr, err := Prepare(context.Background(), addMulProgram(3, 4, 2), Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	sigs := map[Signature]bool{}
	for _, n3 := range []int64{2, 1} {
		p := addMulProgram(3, 4, n3)
		an, sig, err := pr.Bind(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		want := analyzeAddMul(t, 3, 4, n3, true)
		if !reflect.DeepEqual(an.ShareStrings(), want.ShareStrings()) || !reflect.DeepEqual(an.DepStrings(), want.DepStrings()) {
			t.Errorf("n3=%d: shares %v deps %v, Analyze has %v %v",
				n3, an.ShareStrings(), an.DepStrings(), want.ShareStrings(), want.DepStrings())
		}
		if an.Prog != p || an.Shares[0].Prog != p || an.Shares[0].Src != p.Stmts[an.Shares[0].Src.ID] {
			t.Errorf("n3=%d: the analysis is not of the bound program's statements", n3)
		}
		sigs[sig] = true
	}
	if len(sigs) != 2 {
		t.Errorf("n3=1 and n3=2 share a signature")
	}
	other := prog.New("other", "n1", "n2", "n3")
	other.AddArray(&prog.Array{Name: "A", BlockRows: 1, BlockCols: 1, GridRows: 1, GridCols: 1})
	other.NewStatement("s1", "i").Access(prog.Write, "A", prog.V("i"), prog.C(0))
	if _, _, err := pr.Bind(context.Background(), other); err == nil {
		t.Error("Bind accepted a program of another shape")
	}
}

// Prepare builds the extents only; a Bind cut off by its context fails
// with the context's error and leaves the Prepared bindable.
func TestPreparedBindCanceled(t *testing.T) {
	p := addMulProgram(3, 4, 2)
	pr, err := Prepare(context.Background(), p, Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cd := range pr.cands {
		if cd.nwib != nil || cd.share != nil {
			t.Fatal("Prepare ran no-write-in-between or multiplicity reduction")
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := pr.Bind(canceled, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Bind on a canceled context: %v", err)
	}
	an, _, err := pr.Bind(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := analyzeAddMul(t, 3, 4, 2, true); !reflect.DeepEqual(an.ShareStrings(), want.ShareStrings()) {
		t.Errorf("shares %v after a canceled Bind, Analyze has %v", an.ShareStrings(), want.ShareStrings())
	}
}

// The paper computes P(s1WC→s2RC) = {i=i', k=k', 0<=j'<n3}; multiplicity
// reduction then pins j'=0 (the read closest in time to the write).
func TestAddMulPipelineReducedToFirstRead(t *testing.T) {
	an := analyzeAddMul(t, 2, 3, 4, false)
	c := an.FindShare("s1WC→s2RC")
	if c == nil {
		t.Fatal("missing s1WC→s2RC")
	}
	pairs, err := c.ConcretePairs()
	if err != nil {
		t.Fatal(err)
	}
	// One pair per (i,k): 2*3 = 6; target j' must be 0 and i,k must match.
	if len(pairs) != 6 {
		t.Fatalf("want 6 pairs got %d: %v", len(pairs), pairs)
	}
	for _, pr := range pairs {
		src, tgt := pr[0], pr[1]
		if tgt[1] != 0 {
			t.Errorf("target j' should be 0, got %v", tgt)
		}
		if src[0] != tgt[0] || src[1] != tgt[2] {
			t.Errorf("i/k must match: src=%v tgt=%v", src, tgt)
		}
	}
}

// The accumulator W→R share must be consecutive in k after
// no-write-in-between: pairs ((i,j,k),(i,j,k+1)).
func TestAddMulAccumulatorConsecutive(t *testing.T) {
	an := analyzeAddMul(t, 2, 4, 2, false)
	c := an.FindShare("s2WE→s2RE")
	if c == nil {
		t.Fatal("missing s2WE→s2RE")
	}
	pairs, err := c.ConcretePairs()
	if err != nil {
		t.Fatal(err)
	}
	// Per (i,j): k -> k+1 for k in 0..n2-2: 2*2*3 = 12 pairs.
	if len(pairs) != 12 {
		t.Fatalf("want 12 pairs got %d", len(pairs))
	}
	for _, pr := range pairs {
		src, tgt := pr[0], pr[1]
		if src[0] != tgt[0] || src[1] != tgt[1] || tgt[2] != src[2]+1 {
			t.Errorf("not consecutive: src=%v tgt=%v", src, tgt)
		}
	}
}

// The R→R self-share on the accumulator must NOT exist: every pair of E
// reads has the accumulator write in between (intra-instance ordering).
func TestAddMulNoAccumulatorReadReadShare(t *testing.T) {
	an := analyzeAddMul(t, 2, 4, 2, false)
	if s := an.FindShare("s2RE→s2RE"); s != nil {
		pairs, _ := s.ConcretePairs()
		t.Fatalf("s2RE→s2RE should be blocked by intervening writes; got %d pairs", len(pairs))
	}
}

// D self-share: D[k,j] is re-read across i; after reduction pairs must be
// consecutive in i with j, k fixed.
func TestAddMulDSelfShareConsecutiveI(t *testing.T) {
	an := analyzeAddMul(t, 3, 2, 2, false)
	c := an.FindShare("s2RD→s2RD")
	if c == nil {
		t.Fatal("missing s2RD→s2RD")
	}
	pairs, err := c.ConcretePairs()
	if err != nil {
		t.Fatal(err)
	}
	// Per (j,k): i -> i+1 for i in 0..n1-2: 2*2*2 = 8 pairs.
	if len(pairs) != 8 {
		t.Fatalf("want 8 pairs got %d: %v", len(pairs), pairs)
	}
	for _, pr := range pairs {
		src, tgt := pr[0], pr[1]
		if tgt[0] != src[0]+1 || src[1] != tgt[1] || src[2] != tgt[2] {
			t.Errorf("not consecutive in i: src=%v tgt=%v", src, tgt)
		}
	}
}

// Dependences on E: the accumulation chain must be a dependence (W→R and
// W→W). The R→W co-access s2RE→s2WE is transitively covered — the write in
// the source instance itself intervenes, so its ordering is implied by the
// W→W chain and no-write-in-between removes it (§5.1).
func TestAddMulAccumulatorDependences(t *testing.T) {
	an := analyzeAddMul(t, 2, 3, 2, false)
	deps := depSet(an)
	for _, want := range []string{"s2WE→s2RE", "s2WE→s2WE"} {
		if !deps[want] {
			t.Errorf("missing dependence %s; have %v", want, an.DepStrings())
		}
	}
	if deps["s2RE→s2WE"] {
		t.Error("s2RE→s2WE should be transitively covered by the intra-instance write")
	}
}

// §4.3's opposite-direction example: for i { A[i]=B[i]; C[i]=A[n-1-i] }
// has dependences in both directions between s1 and s2.
func TestOppositeDirectionDependences(t *testing.T) {
	p := prog.New("mini", "n")
	p.AddArray(&prog.Array{Name: "A", BlockRows: 2, BlockCols: 2, GridRows: 8, GridCols: 1})
	p.AddArray(&prog.Array{Name: "B", BlockRows: 2, BlockCols: 2, GridRows: 8, GridCols: 1})
	p.AddArray(&prog.Array{Name: "Cc", BlockRows: 2, BlockCols: 2, GridRows: 8, GridCols: 1})
	p.NewNest()
	s1 := p.NewStatement("s1", "i")
	s1.Range("i", prog.C(0), prog.V("n"))
	s1.Access(prog.Read, "B", prog.V("i"), prog.C(0))
	s1.Access(prog.Write, "A", prog.V("i"), prog.C(0))
	s2 := p.NewStatement("s2", "i")
	s2.Range("i", prog.C(0), prog.V("n"))
	s2.Access(prog.Read, "A", prog.V("n").Minus(prog.V("i")).AddK(-1), prog.C(0))
	s2.Access(prog.Write, "Cc", prog.V("i"), prog.C(0))
	p.Bind("n", 6)

	an, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deps := depSet(an)
	if !deps["s1WA→s2RA"] || !deps["s2RA→s1WA"] {
		t.Fatalf("both directions expected; have %v", an.DepStrings())
	}
	// Check the paper's polyhedra: P(s1WA→s2RA) = {i+i'=n-1, 0<=i<=(n-1)/2}.
	var fwd *CoAccess
	for _, d := range an.Deps {
		if d.String() == "s1WA→s2RA" {
			fwd = d
		}
	}
	pairs, err := fwd.ConcretePairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		i, ip := pr[0][0], pr[1][0]
		if i+ip != 5 {
			t.Errorf("pair (%d,%d) violates i+i'=n-1", i, ip)
		}
		if i > 2 { // (n-1)/2 = 2 for n=6 (source must be the earlier one)
			t.Errorf("source i=%d exceeds (n-1)/2", i)
		}
	}
	if len(pairs) != 3 {
		t.Fatalf("n=6: want 3 forward pairs, got %d", len(pairs))
	}
}

// TwoMM: the cross-statement A share must be rank-preserving (paired j'=j,
// Figure 7(b)), not collapsed to a single pair per (i,k).
func TestTwoMMCrossShareRankPreserving(t *testing.T) {
	p := ops.TwoMM(ops.TwoMMConfig{
		N1: 2, N2: 3, N3: 2, N4: 3,
		ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4}, DBlock: ops.Dims{Rows: 4, Cols: 4},
	})
	an, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := an.FindShare("s1RA→s2RA")
	if c == nil {
		t.Fatalf("missing s1RA→s2RA; have %v", an.ShareStrings())
	}
	pairs, err := c.ConcretePairs()
	if err != nil {
		t.Fatal(err)
	}
	// Rank-preserving pairing: one pair per (i, j, k) with j < min(n2,n4):
	// 2*3*2 = 12 pairs (n2=n4=3 here... j in 0..2, so 2*3*2=12).
	if len(pairs) != 12 {
		t.Fatalf("want 12 rank-preserving pairs got %d", len(pairs))
	}
	for _, pr := range pairs {
		src, tgt := pr[0], pr[1]
		if src[0] != tgt[0] || src[2] != tgt[2] {
			t.Errorf("i,k must match: %v %v", src, tgt)
		}
		if src[1] != tgt[1] {
			t.Errorf("rank-preserving pairing expects j'=j: %v %v", src, tgt)
		}
	}
}

// TwoMM inventory: the paper says this program has 9 sharing opportunities.
func TestTwoMMShareCount(t *testing.T) {
	p := ops.TwoMM(ops.TwoMMConfig{
		N1: 2, N2: 3, N3: 2, N4: 3,
		ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4}, DBlock: ops.Dims{Rows: 4, Cols: 4},
	})
	an, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shares := shareSet(an)
	want := []string{
		"s1WC→s1RC", "s1WC→s1WC", "s1RB→s1RB", "s1RA→s1RA",
		"s2WE→s2RE", "s2WE→s2WE", "s2RD→s2RD", "s2RA→s2RA",
		"s1RA→s2RA",
	}
	for _, w := range want {
		if !shares[w] {
			t.Errorf("missing %s; have %v", w, an.ShareStrings())
		}
	}
	if len(an.Shares) != len(want) {
		t.Errorf("expected %d opportunities (paper: 9), got %d: %v",
			len(want), len(an.Shares), an.ShareStrings())
	}
}

// Linear regression: §6.3 reports 16 sharing opportunities; the key ones are
// the X-read shares between s1, s2 and s5.
func TestLinRegShares(t *testing.T) {
	p := ops.LinReg(ops.LinRegConfig{
		N: 4, XBlock: ops.Dims{Rows: 8, Cols: 4}, YBlock: ops.Dims{Rows: 8, Cols: 2},
	})
	an, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shares := shareSet(an)
	for _, w := range []string{
		"s1RX→s2RX", "s1RX→s5RX", "s2RX→s5RX",
		"s2RY→s6RY", "s5WYh→s6RYh", "s6WEv→s7REv",
		"s1WU→s3RU", "s2WV→s4RV", "s3WW→s4RW", "s4WBh→s5RBh",
	} {
		if !shares[w] {
			t.Errorf("missing %s", w)
		}
	}
	t.Logf("linreg: %d opportunities (paper: 16): %v", len(an.Shares), an.ShareStrings())
	if len(an.Shares) < 14 || len(an.Shares) > 22 {
		t.Errorf("opportunity count %d far from paper's 16", len(an.Shares))
	}
}

// The U write→read share must connect only the LAST write of U (r = n-1) to
// s3's read (no-write-in-between).
func TestLinRegLastWriteToRead(t *testing.T) {
	p := ops.LinReg(ops.LinRegConfig{
		N: 5, XBlock: ops.Dims{Rows: 8, Cols: 4}, YBlock: ops.Dims{Rows: 8, Cols: 2},
	})
	an, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := an.FindShare("s1WU→s3RU")
	if c == nil {
		t.Fatal("missing s1WU→s3RU")
	}
	pairs, err := c.ConcretePairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0][0][0] != 4 {
		t.Fatalf("only the last write (r=4) should pair with the read: %v", pairs)
	}
}

// Property: multiplicity reduction yields a one-one relation on every
// sharing opportunity of every benchmark program — each source instance
// appears at most once, and each target instance appears at most once.
func TestSharesAreOneOne(t *testing.T) {
	programs := []*prog.Program{
		addMulProgram(3, 3, 2),
		ops.TwoMM(ops.TwoMMConfig{N1: 2, N2: 2, N3: 2, N4: 2,
			ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4}, DBlock: ops.Dims{Rows: 4, Cols: 4}}),
		ops.LinReg(ops.LinRegConfig{N: 3, XBlock: ops.Dims{Rows: 4, Cols: 2}, YBlock: ops.Dims{Rows: 4, Cols: 2}}),
	}
	for _, p := range programs {
		an, err := Analyze(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(an.Dropped) != 0 {
			t.Errorf("%s: %d opportunities dropped by reduction", p.Name, len(an.Dropped))
		}
		for _, s := range an.Shares {
			pairs, err := s.ConcretePairs()
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, s, err)
			}
			srcSeen := map[string]bool{}
			tgtSeen := map[string]bool{}
			for _, pr := range pairs {
				sk, tk := key64(pr[0]), key64(pr[1])
				if srcSeen[sk] {
					t.Errorf("%s %s: source %v repeated", p.Name, s, pr[0])
				}
				if tgtSeen[tk] {
					t.Errorf("%s %s: target %v repeated", p.Name, s, pr[1])
				}
				srcSeen[sk] = true
				tgtSeen[tk] = true
			}
		}
	}
}

// Property: every sharing-opportunity pair truly is a pair of consecutive
// accesses to the same block (for self opportunities after reduction) or at
// least accesses the same block with the source strictly before the target
// under the original schedule.
func TestSharePairsAccessSameBlockInOrder(t *testing.T) {
	p := addMulProgram(3, 3, 2)
	an, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := p.ParamValues()
	for _, s := range an.Shares {
		pairs, err := s.ConcretePairs()
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range pairs {
			sr, sc := s.SrcAccess().BlockAt(pr[0], params)
			tr, tc := s.TgtAccess().BlockAt(pr[1], params)
			if sr != tr || sc != tc {
				t.Fatalf("%s: pair %v touches different blocks (%d,%d)≠(%d,%d)",
					s, pr, sr, sc, tr, tc)
			}
			t1 := an.Orig.TimeOf(s.Src, pr[0], params)
			t2 := an.Orig.TimeOf(s.Tgt, pr[1], params)
			if !prog.LexLess(t1, t2) {
				t.Fatalf("%s: pair %v not ordered: %v !< %v", s, pr, t1, t2)
			}
		}
	}
}

// Dependence pairs must also respect the original order and block equality.
func TestDepPairsValid(t *testing.T) {
	p := addMulProgram(2, 3, 2)
	an, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := p.ParamValues()
	for _, d := range an.Deps {
		pairs, err := d.ConcretePairs()
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) == 0 {
			t.Errorf("%s: dependence with empty concrete extent", d)
		}
		for _, pr := range pairs {
			t1 := an.Orig.TimeOf(d.Src, pr[0], params)
			t2 := an.Orig.TimeOf(d.Tgt, pr[1], params)
			if !prog.LexLess(t1, t2) {
				t.Fatalf("%s: unordered dependence pair %v", d, pr)
			}
		}
	}
}

func key64(v []int64) string {
	out := make([]byte, 0, len(v)*4)
	for _, x := range v {
		out = append(out, byte(x), byte(x>>8), ',')
	}
	return string(out)
}

func TestKindString(t *testing.T) {
	kinds := []Kind{RR, RW, WR, WW}
	var got []string
	for _, k := range kinds {
		got = append(got, k.String())
	}
	sort.Strings(got)
	if len(got) != 4 {
		t.Fatal("kind strings")
	}
}
