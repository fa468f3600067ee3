package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
)

func TestLABTreeBasic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.lab")
	tr, err := OpenLABTree(path, SplitMiddle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Write(7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Read(7, nil)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Read got %q err %v", got, err)
	}
	if _, err := tr.Read(8, nil); err != ErrNotFound {
		t.Fatalf("missing key should be ErrNotFound, got %v", err)
	}
}

func TestLABTreeUpdate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.lab")
	tr, err := OpenLABTree(path, SplitMiddle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Write(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(1, bytes.Repeat([]byte("x"), 9000)); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Read(1, nil)
	if err != nil || len(got) != 9000 {
		t.Fatalf("update lost data: %d bytes, err %v", len(got), err)
	}
}

func TestLABTreeMultiPagePayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.lab")
	tr, err := OpenLABTree(path, SplitMiddle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// A payload spanning many overflow pages.
	data := make([]byte, 50_000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := tr.Write(42, data); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Read(42, nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("multi-page payload corrupted (err %v)", err)
	}
}

func TestLABTreeRandomAgainstOracle(t *testing.T) {
	for _, policy := range []SplitPolicy{SplitMiddle, SplitAppend} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.lab")
			tr, err := OpenLABTree(path, policy)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			rng := rand.New(rand.NewSource(31))
			oracle := make(map[uint64][]byte)
			for op := 0; op < 3000; op++ {
				key := uint64(rng.Intn(600))
				switch rng.Intn(10) {
				case 0: // delete
					_, exists := oracle[key]
					err := tr.Delete(key)
					if exists && err != nil {
						t.Fatalf("delete existing %d: %v", key, err)
					}
					if !exists && err != ErrNotFound {
						t.Fatalf("delete missing %d: %v", key, err)
					}
					delete(oracle, key)
				default: // write
					data := make([]byte, rng.Intn(2000)+1)
					rng.Read(data)
					if err := tr.Write(key, data); err != nil {
						t.Fatalf("write %d: %v", key, err)
					}
					oracle[key] = data
				}
			}
			for key, want := range oracle {
				got, err := tr.Read(key, nil)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("key %d mismatch (err %v)", key, err)
				}
			}
		})
	}
}

func TestLABTreeSequentialLoadDeepTree(t *testing.T) {
	// Enough keys to force inner-node splits (maxLeafKeys=255).
	path := filepath.Join(t.TempDir(), "t.lab")
	tr, err := OpenLABTree(path, SplitAppend)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(3000)
	for k := uint64(0); k < n; k++ {
		if err := tr.Write(k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatal(err)
		}
	}
	_, height, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if height < 2 {
		t.Fatalf("tree should have split: height=%d", height)
	}
	for k := uint64(0); k < n; k++ {
		got, err := tr.Read(k, nil)
		if err != nil || string(got) != fmt.Sprint(k) {
			t.Fatalf("key %d: %q err %v", k, got, err)
		}
	}
	tr.Close()
	// Reopen and verify persistence.
	tr2, err := OpenLABTree(path, SplitAppend)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	got, err := tr2.Read(n-1, nil)
	if err != nil || string(got) != fmt.Sprint(n-1) {
		t.Fatalf("after reopen: %q err %v", got, err)
	}
}

func TestLABTreeSplitAppendDenserThanMiddle(t *testing.T) {
	count := func(policy SplitPolicy) uint32 {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("p%d.lab", policy))
		tr, err := OpenLABTree(path, policy)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for k := uint64(0); k < 4000; k++ {
			if err := tr.Write(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		pages, _, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return pages
	}
	mid, app := count(SplitMiddle), count(SplitAppend)
	if app >= mid {
		t.Errorf("append split should use fewer pages on sequential load: middle=%d append=%d", mid, app)
	}
}

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
	if RowMajor(2, 3, 4, 5) != 2*5+3 {
		t.Fatal("RowMajor wrong")
	}
	// ZOrder must be injective on a grid.
	seen := map[uint64]bool{}
	for r := int64(0); r < 16; r++ {
		for c := int64(0); c < 16; c++ {
			z := ZOrder(r, c, 16, 16)
			if seen[z] {
				t.Fatalf("ZOrder collision at (%d,%d)", r, c)
			}
			seen[z] = true
		}
	}
}

func testArray() *prog.Array {
	return &prog.Array{Name: "A", BlockRows: 4, BlockCols: 3, GridRows: 5, GridCols: 6}
}

func TestManagerBothFormats(t *testing.T) {
	for _, format := range []Format{FormatDAF, FormatLABTree} {
		t.Run(format.String(), func(t *testing.T) {
			m, err := NewManager(t.TempDir(), format)
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
