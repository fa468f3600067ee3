package sched

import (
	"context"
	"testing"

	"riotshare/internal/deps"
	"riotshare/internal/ops"
	"riotshare/internal/polyhedra"
	"riotshare/internal/prog"
)

// On Legal's violation pieces, whose parameters are free, IsEmptyInt alone
// answers as Legal's rational test followed by IsEmptyInt does. The
// pieces are those of every plan of addmul and of linreg's plans of up to
// one opportunity (all empty: the plans are legal) and those of each
// plan's schedule run backwards (some non-empty).
func TestLegalViolationPiecesEmptiness(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *prog.Program
		opt  SearchOptions
	}{
		{"addmul", ops.AddMul(ops.AddMulConfig{N1: 3, N2: 4, N3: 2,
			ABBlock: ops.Dims{Rows: 8, Cols: 8}, DBlock: ops.Dims{Rows: 8, Cols: 8}}), SearchOptions{}},
		{"linreg", ops.LinReg(ops.LinRegConfig{N: 4,
			XBlock: ops.Dims{Rows: 8, Cols: 4}, YBlock: ops.Dims{Rows: 8, Cols: 2}}), SearchOptions{MaxLevel: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			an, err := deps.Analyze(tc.p, deps.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSearcher(an)
			plans, err := s.Search(context.Background(), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			var empty, nonEmpty int
			check := func(sch *prog.Schedule) {
				for _, dep := range an.Deps {
					eachViolation(dep, sch, tc.p.NumParams(), func(v *polyhedra.Poly) bool {
						_, sampled := v.SampleInt(16)
						want := v.IsEmptyRational() || !sampled // Legal's test
						if got := v.IsEmptyInt(16); got != want {
							t.Fatalf("%s: IsEmptyInt(16) = %v, rational test then sampling %v, on %s", dep, got, want, v)
						}
						if want {
							empty++
						} else {
							nonEmpty++
						}
						return true
					})
				}
			}
			for _, pl := range plans {
				check(pl.Schedule)
				back := prog.NewSchedule(pl.Schedule.NRows)
				for id, rows := range pl.Schedule.Rows {
					neg := make([][]int64, len(rows))
					for r, row := range rows {
						neg[r] = make([]int64, len(row))
						for i, x := range row {
							neg[r][i] = -x
						}
					}
					back.SetRows(id, neg)
				}
				if s.Legal(back) {
					t.Fatalf("plan %s run backwards is legal", pl.Label(an))
				}
				check(back)
			}
			if empty == 0 || nonEmpty == 0 {
				t.Fatalf("%d empty and %d non-empty violation pieces; want both", empty, nonEmpty)
			}
			t.Logf("%d plans, %d empty and %d non-empty violation pieces", len(plans), empty, nonEmpty)
		})
	}
}
