package server

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// countingStore counts the block reads and writes that reach a backend,
// per block.
type countingStore struct {
	storage.Backend
	mu            sync.Mutex
	reads, writes map[prog.BlockID]int
}

func newCountingStore(b storage.Backend) *countingStore {
	return &countingStore{Backend: b, reads: make(map[prog.BlockID]int), writes: make(map[prog.BlockID]int)}
}

func (c *countingStore) ReadBlock(array string, r, col int64) (*blas.Matrix, error) {
	c.mu.Lock()
	c.reads[prog.BlockID{Array: array, R: r, C: col}]++
	c.mu.Unlock()
	return c.Backend.ReadBlock(array, r, col)
}

func (c *countingStore) WriteBlock(array string, r, col int64, blk *blas.Matrix) error {
	c.mu.Lock()
	c.writes[prog.BlockID{Array: array, R: r, C: col}]++
	c.mu.Unlock()
	return c.Backend.WriteBlock(array, r, col, blk)
}

// TestResultFetchReadsNothingBack: with every block resident in an
// unlimited pool, a finished query costs no store read beyond its input
// misses — the result summary comes from the pool — the transient C never
// reaches the store, each block of the output E is written exactly once, and
// OutputInfo.Sum still equals the block-order sum of the stored output.
func TestResultFetchReadsNothingBack(t *testing.T) {
	s, err := New(Config{
		Dir: t.TempDir(), MaxConcurrent: 1, Seed: testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Count what the pool sends to the store: the pool is swapped before
	// any query runs, over the server's own store.
	cs := newCountingStore(s.store)
	s.pool = buffer.NewPool(cs, 0)

	id, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || len(st.Outputs) != 1 || st.Outputs[0].Array != "E" {
		t.Fatalf("query %s: state %s (%s), outputs %+v; want done with the one output E", id, st.State, st.Err, st.Outputs)
	}
	p := smallAddMul()
	if !p.Arrays["C"].Transient || p.Arrays["E"].Transient {
		t.Fatal("the test needs C transient and E persistent")
	}

	misses := 0
	for key, n := range cs.reads {
		misses += n
		if n != 1 {
			t.Errorf("%s read %d times through an unlimited pool, want once", key, n)
		}
	}
	if reads := s.Stats().Store.ReadReqs; reads != int64(misses) {
		t.Errorf("%d store reads, %d of them pool misses: %d read back around the pool, want 0",
			reads, misses, reads-int64(misses))
	}
	for name, want := range map[string]int{"C": 0, "E": 1} {
		arr := p.Arrays[name]
		for br := int64(0); br < int64(arr.GridRows); br++ {
			for bc := int64(0); bc < int64(arr.GridCols); bc++ {
				blk := prog.BlockID{Array: id + "." + name, R: br, C: bc}
				if cs.reads[blk] != 0 || cs.writes[blk] != want {
					t.Errorf("%s: %d reads, %d writes; want 0, %d", blk, cs.reads[blk], cs.writes[blk], want)
				}
			}
		}
	}

	e := p.Arrays["E"]
	full, err := s.Output(id, "E")
	if err != nil {
		t.Fatal(err)
	}
	if sum := twoLevelSum(full, e); st.Outputs[0].Sum != sum {
		t.Errorf("OutputInfo.Sum = %v, want the stored output's sum %v", st.Outputs[0].Sum, sum)
	}
}

// TestStreamAttributesTenant: a streamed query's pool acquisitions are
// attributed to the tenant that submitted it, never to the anonymous one.
func TestStreamAttributesTenant(t *testing.T) {
	s, err := New(Config{
		Dir: t.TempDir(), MaxConcurrent: 1, Seed: testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(Request{Program: "addmul-small", Tenant: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("query %s: %v, state %s (%s)", id, err, st.State, st.Err)
	}
	before := s.Pool().Stats().Tenants["t1"]
	var buf bytes.Buffer
	if err := s.StreamToCtx(context.Background(), &buf, id); err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for _, a := range decodeStream(t, buf.Bytes()) {
		blocks += a.blocks
	}
	tenants := s.Pool().Stats().Tenants
	if anon, ok := tenants[""]; ok {
		t.Errorf("anonymous tenant has pool activity %+v, want none", anon)
	}
	after := tenants["t1"]
	if grew := (after.Hits + after.Misses) - (before.Hits + before.Misses); grew < int64(blocks) {
		t.Errorf("t1's acquisitions grew by %d over a %d-block stream, want >= %d", grew, blocks, blocks)
	}
}
