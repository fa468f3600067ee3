package exec

import (
	"sync"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/codegen"
	"riotshare/internal/disk"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// copyOnWriteTimeline hand-builds the one situation in which execEvent must
// copy a block: X's hold interval begins with a disk read (so the buffered
// block is borrowed from the pool or the store) and is written in place two
// events later, with the write itself kept in memory only.
//
//	e0  Y = X + B     X read from disk: the hold [e0, e3] begins borrowed
//	e1  Z = X - B     X from memory
//	e2  X += A·B      X from memory, written in place, write elided
//	e3  W = X + B     X from memory: must see e2's value
func copyOnWriteTimeline() *codegen.Timeline {
	p := prog.New("cow", "n").Bind("n", 1)
	for _, name := range []string{"A", "B", "X", "Y", "Z", "W"} {
		p.AddArray(&prog.Array{Name: name, BlockRows: 4, BlockCols: 4, GridRows: 1, GridCols: 1})
	}
	at := prog.C(0)
	stmt := func(name, kernel string) *prog.Statement {
		return p.NewStatement(name, "i").Range("i", prog.C(0), prog.V("n")).SetKernel(kernel)
	}
	elementwise := func(name, kernel, dst string) *prog.Statement {
		return stmt(name, kernel).Access(prog.Read, "X", at, at).Access(prog.Read, "B", at, at).Access(prog.Write, dst, at, at)
	}
	s0 := elementwise("s0", "add", "Y")
	s1 := elementwise("s1", "sub", "Z")
	s2 := stmt("s2", "gemm").Access(prog.Read, "A", at, at).Access(prog.Read, "B", at, at).
		Access(prog.Read, "X", at, at).Access(prog.Write, "X", at, at)
	s3 := elementwise("s3", "add", "W")

	const io, mem, skip = codegen.DoIO, codegen.FromMemory, codegen.Elided
	tl := &codegen.Timeline{Prog: p, Params: p.ParamValues()}
	for _, st := range []*prog.Statement{s0, s1, s2, s3} {
		tl.Events = append(tl.Events, codegen.Event{St: st, X: []int64{0}})
	}
	tl.Actions = [][]codegen.AccessAction{
		{io, io, io},
		{mem, io, io},
		{io, io, mem, skip},
		{mem, io, io},
	}
	tl.Holds = []codegen.Hold{{Block: prog.BlockID{Array: "X"}, StartEvent: 0, EndEvent: 3}}
	return tl
}

// copyOnWriteStore opens a store holding the timeline's arrays with A, B and
// X filled.
func copyOnWriteStore(t *testing.T, tl *codegen.Timeline) *storage.Manager {
	t.Helper()
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.CreateAll(tl.Prog); err != nil {
		t.Fatal(err)
	}
	fillInputs(t, tl.Prog, m, 7) // A and B; X is written, so seed it by hand
	x := blas.NewMatrix(4, 4)
	for i := range x.Data {
		x.Data[i] = float64(i) + 0.5
	}
	if err := m.WriteBlock("X", 0, 0, x); err != nil {
		t.Fatal(err)
	}
	return m
}

// Two engines run the copy-on-write timeline at once over one pool. The
// write at e2 must land in a private copy: the pool's frame of X, the other
// engine's borrowed operand and the store all keep X's original value, and
// every output equals the in-order run without a pool bit for bit. Run
// under -race, an in-place write to the borrowed block is also a reported
// data race against the other engine's reads.
func TestWriteToBorrowedHeldBlockCopies(t *testing.T) {
	tl := copyOnWriteTimeline()
	open := func() *storage.Manager { return copyOnWriteStore(t, tl) }
	block := func(m storage.Backend, name string) *blas.Matrix {
		blk, err := m.ReadBlock(name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}

	ref := open()
	if _, err := (&Engine{Store: ref, Model: disk.PaperModel()}).Run(tl); err != nil {
		t.Fatal(err)
	}

	m := open()
	x0 := block(m, "X")
	pool := buffer.NewPool(m, 0)
	var wg sync.WaitGroup
	for _, workers := range []int{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := &Engine{Store: m, Model: disk.PaperModel(), Pool: pool}
			if _, err := eng.RunOptions(tl, Options{Workers: workers}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	frame, err := pool.Acquire("X", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin("X", 0, 0, 1)
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want *blas.Matrix) {
		t.Helper()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s[%d] = %v, want %v", what, i, got.Data[i], want.Data[i])
			}
		}
	}
	same("pool frame of X", frame, x0)
	same("stored X", block(m, "X"), x0)
	for _, name := range []string{"Y", "Z", "W"} {
		same(name, block(m, name), block(ref, name))
	}
	// W = (X + A·B) + B: the reader after the write saw the written copy.
	if w, y := block(m, "W"), block(m, "Y"); w.Data[0] == y.Data[0] {
		t.Fatal("W equals Y: e3 did not observe e2's write to the held block")
	}
}
