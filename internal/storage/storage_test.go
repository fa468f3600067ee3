package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
)

func TestDAFRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.daf")
	d, err := OpenDAF(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	data := bytes.Repeat([]byte{0xAB}, 64)
	if err := d.Write(5, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(5, nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("DAF round trip failed: %v", err)
	}
	if err := d.Write(0, []byte("short")); err == nil {
		t.Fatal("wrong-size write should fail")
	}
}

func TestLinearizations(t *testing.T) {
	if ColMajor(2, 3, 4, 5) != 3*4+2 {
		t.Fatal("ColMajor wrong")
	}
}

func testArray() *prog.Array {
	return &prog.Array{Name: "A", BlockRows: 4, BlockCols: 3, GridRows: 5, GridCols: 6}
}

// The name dates from when the Manager served two block formats; DAF, the
// one left, keeps its subtest.
func TestManagerBothFormats(t *testing.T) {
	t.Run("daf", func(t *testing.T) {
		m, err := NewManager(t.TempDir(), FormatDAF)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		arr := testArray()
		if err := m.Create(arr); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		want := map[[2]int64]*blas.Matrix{}
		for r := int64(0); r < 5; r++ {
			for c := int64(0); c < 6; c++ {
				blk := blas.NewMatrix(4, 3)
				for i := range blk.Data {
					blk.Data[i] = rng.NormFloat64()
				}
				if err := m.WriteBlock("A", r, c, blk); err != nil {
					t.Fatal(err)
				}
				want[[2]int64{r, c}] = blk
			}
		}
		for rc, blk := range want {
			got, err := m.ReadBlock("A", rc[0], rc[1])
			if err != nil {
				t.Fatal(err)
			}
			if blas.MaxAbsDiff(got, blk) != 0 {
				t.Fatalf("block (%d,%d) corrupted", rc[0], rc[1])
			}
		}
	})
}

// A format value other than FormatDAF is refused, never served as DAF.
func TestManagerRefusesUnknownFormat(t *testing.T) {
	if _, err := NewManager(t.TempDir(), FormatDAF+1); err == nil {
		t.Fatal("NewManager accepted a format that does not exist")
	}
}

func TestManagerErrors(t *testing.T) {
	m, err := NewManager(t.TempDir(), FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.ReadBlock("missing", 0, 0); err == nil {
		t.Fatal("unknown array should error")
	}
	arr := testArray()
	if err := m.Create(arr); err != nil {
		t.Fatal(err)
	}
	if err := m.Create(arr); err == nil {
		t.Fatal("duplicate create should error")
	}
	bad := blas.NewMatrix(1, 1)
	if err := m.WriteBlock("A", 0, 0, bad); err == nil {
		t.Fatal("wrong block shape should error")
	}
}

// Array names become store file names, so a name that is not a single path
// element must be refused before any file is touched — by the manager and
// by a sharded store's local shards alike.
func TestArrayNamesStayInsideTheStoreRoot(t *testing.T) {
	for _, name := range []string{"A", "q3.E", "a.b.c", "..x", "x.."} {
		if err := CheckArrayName(name); err != nil {
			t.Errorf("CheckArrayName(%q) = %v, want ok", name, err)
		}
	}
	bad := []string{"", ".", "..", "../x", "../../x", "a/b", `a\b`, "/abs", "a\x00b"}
	for _, name := range bad {
		if err := CheckArrayName(name); err == nil {
			t.Errorf("CheckArrayName(%q) accepted", name)
		}
	}

	parent := t.TempDir()
	root := filepath.Join(parent, "store")
	m, err := NewManager(root, FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sm, err := OpenSharded(ShardDirs(filepath.Join(parent, "sharded"), 2), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	for _, name := range bad {
		arr := testArray()
		arr.Name = name
		if err := m.Create(arr); err == nil {
			t.Errorf("Manager.Create(%q) succeeded", name)
		}
		if err := sm.Create(arr); err == nil {
			t.Errorf("ShardedManager.Create(%q) succeeded", name)
		}
	}
	// Nothing but the two store roots exists under parent.
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "store" && e.Name() != "sharded" {
			t.Errorf("%s created outside the store roots", e.Name())
		}
	}
}
