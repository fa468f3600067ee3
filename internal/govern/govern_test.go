package govern

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// rig drives a governor deterministically: every query is a goroutine that
// records its admission, holds its slot until the test releases it, and
// releases. Tests enqueue one waiter at a time (waiting for it to register)
// so queue order is exact, then release slots one at a time and assert the
// admission order.
type rig struct {
	t *testing.T
	g *Governor

	mu    sync.Mutex
	order []string

	releases map[string]chan struct{}
	done     []chan struct{}
	inflight int
}

func newRig(t *testing.T, cfg Config) *rig {
	return &rig{t: t, g: New(cfg), releases: make(map[string]chan struct{})}
}

// enqueue submits one query and blocks until the governor has registered
// it (granted or queued), so successive enqueues have a deterministic
// order.
func (r *rig) enqueue(label, tenant string, peak int64) {
	r.t.Helper()
	rel := make(chan struct{})
	done := make(chan struct{})
	r.releases[label] = rel
	r.done = append(r.done, done)
	r.inflight++
	go func() {
		defer close(done)
		if err := r.g.Admit(tenant, peak); err != nil {
			return
		}
		r.mu.Lock()
		r.order = append(r.order, label)
		r.mu.Unlock()
		<-rel
		r.g.Release(tenant, peak)
	}()
	r.waitFor(func() bool {
		running, queued := r.g.Load()
		return running+queued >= r.inflight || len(r.snapshot()) >= r.inflight
	})
}

// release lets one admitted query finish.
func (r *rig) release(label string) {
	r.t.Helper()
	close(r.releases[label])
}

// waitGrants blocks until n admissions were recorded and returns them.
func (r *rig) waitGrants(n int) []string {
	r.t.Helper()
	r.waitFor(func() bool { return len(r.snapshot()) >= n })
	return r.snapshot()
}

func (r *rig) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

func (r *rig) waitFor(cond func() bool) {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			r.t.Fatalf("timeout; admissions so far: %v", r.snapshot())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// finish releases everything still held and waits for the goroutines.
func (r *rig) finish() {
	r.t.Helper()
	for label, rel := range r.releases {
		select {
		case <-rel:
		default:
			_ = label
			close(rel)
		}
	}
	r.g.Close()
	for _, d := range r.done {
		<-d
	}
}

func assertOrder(t *testing.T, got []string, want ...string) {
	t.Helper()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("admission order = %v, want %v", got, want)
	}
}

// A single (anonymous) tenant must behave exactly like the original FIFO
// admission: strict submission order at K=1.
func TestSingleTenantFIFO(t *testing.T) {
	r := newRig(t, Config{MaxConcurrent: 1})
	defer r.finish()
	r.enqueue("q1", "", 10)
	r.waitGrants(1)
	r.enqueue("q2", "", 10)
	r.enqueue("q3", "", 10)
	r.release("q1")
	r.waitGrants(2)
	r.release("q2")
	assertOrder(t, r.waitGrants(3), "q1", "q2", "q3")
}

// Two equal-weight tenants alternate at K=1: a flooding tenant cannot
// push a small tenant's queries behind its whole backlog.
func TestRoundRobinInterleavesTenants(t *testing.T) {
	r := newRig(t, Config{MaxConcurrent: 1})
	defer r.finish()
	r.enqueue("f1", "flood", 10)
	r.waitGrants(1)
	for _, q := range []string{"f2", "f3", "f4", "f5"} {
		r.enqueue(q, "flood", 10)
	}
	r.enqueue("s1", "small", 10)
	r.enqueue("s2", "small", 10)
	for i, q := range []string{"f1", "f2", "s1", "f3", "s2", "f4"} {
		r.release(q)
		r.waitGrants(i + 2)
	}
	assertOrder(t, r.waitGrants(7), "f1", "f2", "s1", "f3", "s2", "f4", "f5")
}

// The global memory cap still rejects plans that can never fit and holds
// plans until footprint frees (the original admission semantics).
func TestGlobalMemoryCap(t *testing.T) {
	r := newRig(t, Config{MaxConcurrent: 4, GlobalMemBytes: 100})
	defer r.finish()
	if err := r.g.Admit("", 200); err == nil {
		t.Fatal("plan above the global cap must fail at admission")
	}
	r.enqueue("q1", "", 80)
	r.waitGrants(1)
	r.enqueue("q2", "", 40)
	if running, queued := r.g.Load(); running != 1 || queued != 1 {
		t.Fatalf("load = %d running %d queued, want q2 held by the cap", running, queued)
	}
	r.release("q1")
	assertOrder(t, r.waitGrants(2), "q1", "q2")
}

// waitLoad blocks until the governor reports exactly this occupancy.
func (r *rig) waitLoad(running, queued int) {
	r.t.Helper()
	r.waitFor(func() bool {
		rn, qd := r.g.Load()
		return rn == running && qd == queued
	})
}

// A queue head that does not fit the memory cap holds the rotation on its
// turn: another tenant's smaller plan that would fit is not admitted around
// it, so releases drain memory down to the big plan, which runs next.
func TestMemoryBlockedHeadHolds(t *testing.T) {
	r := newRig(t, Config{MaxConcurrent: 4, GlobalMemBytes: 100})
	defer r.finish()
	for _, q := range []string{"b1", "b2", "b3"} {
		r.enqueue(q, "b", 30)
	}
	r.waitGrants(3)
	r.enqueue("a1", "a", 90) // 90+90 > 100: waits, and a's turn comes first
	r.enqueue("b4", "b", 30)
	// Each release frees room b4 would fit, yet a1 holds the turn.
	r.release("b1")
	r.waitLoad(2, 2)
	r.release("b2")
	r.waitLoad(1, 2)
	r.release("b3")
	got := r.waitGrants(4)
	sort.Strings(got[:3]) // b1–b3 were granted together
	assertOrder(t, got, "b1", "b2", "b3", "a1")
	r.waitLoad(1, 1) // a1 runs at 90 of 100; b4 waits for it
	r.release("a1")
	assertOrder(t, r.waitGrants(5)[3:], "a1", "b4")
}

// Close fails queued waiters and future admits while running queries'
// releases still balance.
func TestCloseFailsWaiters(t *testing.T) {
	g := New(Config{MaxConcurrent: 1})
	if err := g.Admit("", 10); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- g.Admit("", 10) }()
	for {
		if _, queued := g.Load(); queued == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	g.Close()
	if err := <-errc; err == nil {
		t.Fatal("queued admit must fail on close")
	}
	if err := g.Admit("", 10); err == nil {
		t.Fatal("admit after close must fail")
	}
	g.Release("", 10)
	if running, _ := g.Load(); running != 0 {
		t.Fatalf("running = %d after balanced release", running)
	}
}
