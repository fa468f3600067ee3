package sched

import (
	"context"
	"testing"
	"time"
)

// greedyScore prefers plans realizing more sharing opportunities — a
// stand-in for the logical-I/O scorer core supplies (more realized sharing
// never increases I/O in these small configs).
func greedyScore(pl Plan) (float64, error) {
	return float64(100 - len(pl.Shares)), nil
}

// The greedy search must return the baseline plus a combined plan, stay
// feasible, and spend far fewer FindSchedule calls than the full search.
func TestSearchGreedyAddMul(t *testing.T) {
	an := addMulAnalysis(t, 4, 4, 2, true)
	s := NewSearcher(an)
	plans, err := s.SearchGreedy(context.Background(), GreedyOptions{Score: greedyScore})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || plans[0].Shares != nil {
		t.Fatalf("greedy plans must start with the baseline, got %d plans", len(plans))
	}
	best := plans[len(plans)-1]
	if len(best.Shares) == 0 {
		t.Fatal("greedy search found no sharing plan on addmul")
	}
	if err := s.VerifyConcrete(best.Schedule); err != nil {
		t.Fatalf("greedy plan %s: %v", best.Label(an), err)
	}
	greedyCalls := s.Stats.FindScheduleCalls
	// Polynomially bounded effort: baseline + level 1 + at most
	// seeds·passes·n accretion probes (n small here, so a loose constant
	// catches an accidental return to exponential enumeration).
	n := len(an.Shares)
	if maxCalls := 1 + n + 4*3*n; greedyCalls > maxCalls {
		t.Errorf("greedy used %d FindSchedule calls on %d opportunities (bound %d)",
			greedyCalls, n, maxCalls)
	}

	s2 := NewSearcher(an)
	full, err := s2.Search(context.Background(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("greedy: %d calls, best %s; full: %d calls, %d plans",
		greedyCalls, best.Label(an), s2.Stats.FindScheduleCalls, len(full))
	// Every greedy combination must also exist in the full enumeration.
	want := subsetKey(best.Shares)
	found := false
	for _, pl := range full {
		if subsetKey(pl.Shares) == want {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("greedy combination %s missing from the full enumeration", best.Label(an))
	}
}

// A score function is mandatory: the greedy order is meaningless without
// one.
func TestSearchGreedyRequiresScore(t *testing.T) {
	an := addMulAnalysis(t, 3, 4, 2, true)
	if _, err := NewSearcher(an).SearchGreedy(context.Background(), GreedyOptions{}); err == nil {
		t.Fatal("expected an error without a Score function")
	}
}

// Cancellation before the baseline is searched serves the original
// schedule as the baseline, with no error: it realizes no sharing and is
// legal by construction. Cancellation later degrades to whatever was found.
func TestSearchGreedyCanceled(t *testing.T) {
	an := addMulAnalysis(t, 3, 4, 2, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSearcher(an)
	plans, err := s.SearchGreedy(ctx, GreedyOptions{Score: greedyScore})
	if err != nil {
		t.Fatalf("canceled before the baseline: %v", err)
	}
	if len(plans) != 1 || len(plans[0].Shares) != 0 || plans[0].Schedule != an.Orig {
		t.Fatalf("want just the original-schedule baseline, got %d plans", len(plans))
	}
	if !s.Legal(plans[0].Schedule) {
		t.Fatal("the original-schedule baseline must be legal")
	}
}

// FindSchedule with a canceled context aborts mid-search: ok=false with
// ctx.Err() set distinguishes cancellation from infeasibility.
func TestFindScheduleCanceled(t *testing.T) {
	an := addMulAnalysis(t, 3, 4, 2, false)
	s := NewSearcher(an)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := s.FindSchedule(ctx, nil); ok {
		t.Fatal("canceled FindSchedule must report ok=false")
	}
	if ctx.Err() == nil {
		t.Fatal("ctx.Err() must be set after cancellation")
	}
	// The same query succeeds with a live context.
	if _, ok := s.FindSchedule(context.Background(), nil); !ok {
		t.Fatal("baseline must be schedulable with a live context")
	}
}

// A deadline that expires before the baseline is planned ends Search
// without an error, serving the original schedule, which realizes no
// sharing and is legal by construction.
func TestSearchDeadline(t *testing.T) {
	an := addMulAnalysis(t, 4, 4, 2, false)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	s := NewSearcher(an)
	plans, err := s.Search(ctx, SearchOptions{})
	if err != nil {
		t.Fatalf("expired deadline: %v", err)
	}
	if len(plans) != 1 || plans[0].Shares != nil || plans[0].Schedule != an.Orig {
		t.Fatalf("want just the original-schedule baseline, got %d plans", len(plans))
	}
	if !s.Legal(plans[0].Schedule) {
		t.Fatal("the original-schedule baseline must be legal")
	}
}
