package storage

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
)

func shardTestArray(name string) *prog.Array {
	return &prog.Array{Name: name, BlockRows: 4, BlockCols: 3, GridRows: 5, GridCols: 4}
}

func randBlock(rng *rand.Rand, arr *prog.Array) *blas.Matrix {
	blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
	for i := range blk.Data {
		blk.Data[i] = rng.NormFloat64()
	}
	return blk
}

// fillArray writes a deterministic block set and returns the blocks by
// coordinate for later comparison.
func fillArray(t *testing.T, b Backend, arr *prog.Array, seed int64) map[[2]int64]*blas.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	blocks := map[[2]int64]*blas.Matrix{}
	for r := int64(0); r < int64(arr.GridRows); r++ {
		for c := int64(0); c < int64(arr.GridCols); c++ {
			blk := randBlock(rng, arr)
			blocks[[2]int64{r, c}] = blk
			if err := b.WriteBlock(arr.Name, r, c, blk); err != nil {
				t.Fatalf("write %s[%d,%d]: %v", arr.Name, r, c, err)
			}
		}
	}
	return blocks
}

func assertBlocks(t *testing.T, b Backend, arr *prog.Array, want map[[2]int64]*blas.Matrix) {
	t.Helper()
	for coord, w := range want {
		got, err := b.ReadBlock(arr.Name, coord[0], coord[1])
		if err != nil {
			t.Fatalf("read %s[%d,%d]: %v", arr.Name, coord[0], coord[1], err)
		}
		for i := range w.Data {
			if got.Data[i] != w.Data[i] {
				t.Fatalf("%s[%d,%d] element %d = %v, want %v", arr.Name, coord[0], coord[1], i, got.Data[i], w.Data[i])
			}
		}
	}
}

// Across shard counts, a sharded store must round-trip exactly the blocks
// a single-directory manager would.
func TestShardedRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		name := fmt.Sprintf("%s/shards=%d", placementName, shards)
		t.Run(name, func(t *testing.T) {
			sm, err := OpenSharded(ShardDirs(t.TempDir(), shards), ShardedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer sm.Close()
			arr := shardTestArray("A")
			if err := sm.Create(arr); err != nil {
				t.Fatal(err)
			}
			want := fillArray(t, sm, arr, 7)
			assertBlocks(t, sm, arr, want)

			// Per-shard stats must sum to the aggregate, and with
			// more than one shard the blocks must actually spread.
			total, perShard := sm.Stats(), sm.ShardStats()
			var sum Stats
			used := 0
			for _, ss := range perShard {
				sum.ReadReqs += ss.ReadReqs
				sum.ReadBytes += ss.ReadBytes
				sum.WriteReqs += ss.WriteReqs
				sum.WriteBytes += ss.WriteBytes
				if ss.WriteReqs > 0 {
					used++
				}
			}
			if sum != total {
				t.Errorf("per-shard stats %+v do not sum to aggregate %+v", sum, total)
			}
			if total.WriteReqs != int64(len(want)) {
				t.Errorf("WriteReqs = %d, want %d", total.WriteReqs, len(want))
			}
			if shards > 1 && used < 2 {
				t.Errorf("placement left %d of %d shards unused for a %dx%d grid",
					shards-used, shards, arr.GridRows, arr.GridCols)
			}
		})
	}
}

// Placement must be a pure function of (array, coords, shards): the same
// inputs always map to the same shard, and every shard index is in range.
func TestPlacementDeterministic(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		for r := int64(0); r < 16; r++ {
			for c := int64(0); c < 16; c++ {
				s1 := placeBlock("A", r, c, shards)
				s2 := placeBlock("A", r, c, shards)
				if s1 != s2 {
					t.Fatalf("placeBlock(A,%d,%d,%d) flapped: %d vs %d", r, c, shards, s1, s2)
				}
				if s1 < 0 || s1 >= shards {
					t.Fatalf("placeBlock(A,%d,%d,%d) = %d out of range", r, c, shards, s1)
				}
			}
		}
	}
}

// A persisted store must reopen with its catalog intact and serve the
// previously written blocks without any rewrite.
func TestShardedPersistReopen(t *testing.T) {
	dirs := ShardDirs(t.TempDir(), 3)
	opt := ShardedOptions{Persist: true}
	sm, err := OpenSharded(dirs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Reopened() {
		t.Fatal("fresh store reported Reopened")
	}
	arr := shardTestArray("X")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := fillArray(t, sm, arr, 3)
	if err := sm.RecordShared(arr, "fp-1"); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	// No stray temp files from the atomic manifest writes.
	for _, dir := range dirs {
		if _, err := os.Stat(filepath.Join(dir, manifestName+".tmp")); !os.IsNotExist(err) {
			t.Errorf("manifest temp file left behind in %s", dir)
		}
	}

	re, err := OpenSharded(dirs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Reopened() {
		t.Fatal("second open did not report Reopened")
	}
	e, ok := re.SharedEntry("X")
	if !ok || e.Fingerprint != "fp-1" {
		t.Fatalf("catalog entry lost across reopen: %+v ok=%v", e, ok)
	}
	if got := e.Array("X"); !(*got == *arr) {
		t.Fatalf("cataloged metadata %+v, want %+v", got, arr)
	}
	// The cataloged array is already open — reads work with zero writes.
	assertBlocks(t, re, arr, want)
	if st := re.Stats(); st.WriteReqs != 0 {
		t.Errorf("reopen issued %d writes, want 0", st.WriteReqs)
	}
}

// Structural mismatches at open time must fail with an error naming the
// shard instead of silently misplacing blocks.
func TestShardedOpenFailures(t *testing.T) {
	newStore := func(t *testing.T, n int) []string {
		dirs := ShardDirs(t.TempDir(), n)
		sm, err := OpenSharded(dirs, ShardedOptions{Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		arr := shardTestArray("A")
		if err := sm.Create(arr); err != nil {
			t.Fatal(err)
		}
		fillArray(t, sm, arr, 1)
		if err := sm.RecordShared(arr, "fp"); err != nil {
			t.Fatal(err)
		}
		if err := sm.Close(); err != nil {
			t.Fatal(err)
		}
		return dirs
	}

	t.Run("missing shard dir", func(t *testing.T) {
		dirs := newStore(t, 3)
		if err := os.RemoveAll(dirs[1]); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSharded(dirs, ShardedOptions{Persist: true})
		if err == nil {
			t.Fatal("open over a missing shard directory succeeded")
		}
		if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), dirs[1]) {
			t.Errorf("error does not name the missing shard: %v", err)
		}
	})

	t.Run("corrupt manifest", func(t *testing.T) {
		dirs := newStore(t, 3)
		if err := os.WriteFile(filepath.Join(dirs[2], manifestName), []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSharded(dirs, ShardedOptions{Persist: true})
		if err == nil {
			t.Fatal("open over a corrupt manifest succeeded")
		}
		if !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "manifest") {
			t.Errorf("error does not name the corrupt shard: %v", err)
		}
	})

	t.Run("wrong shard count", func(t *testing.T) {
		dirs := newStore(t, 2)
		_, err := OpenSharded(append(dirs, filepath.Join(filepath.Dir(dirs[0]), "shard-2")),
			ShardedOptions{Persist: true})
		if err == nil {
			t.Fatal("reopen with a different shard count succeeded")
		}
		if !strings.Contains(err.Error(), "2 shard(s)") {
			t.Errorf("error does not explain the shard-count mismatch: %v", err)
		}
	})

	t.Run("reordered shard dirs", func(t *testing.T) {
		dirs := newStore(t, 2)
		_, err := OpenSharded([]string{dirs[1], dirs[0]}, ShardedOptions{Persist: true})
		if err == nil {
			t.Fatal("reopen with reordered shard dirs succeeded")
		}
		if !strings.Contains(err.Error(), "ordered") {
			t.Errorf("error does not explain the ordering mismatch: %v", err)
		}
	})

	// rewriteManifests edits every shard's persisted manifest in place.
	rewriteManifests := func(t *testing.T, dirs []string, edit func(*manifest)) {
		for i, dir := range dirs {
			m, err := NewManager(dir, FormatDAF)
			if err != nil {
				t.Fatal(err)
			}
			data, err := m.ReadManifest()
			if err != nil {
				t.Fatal(err)
			}
			var mf manifest
			if err := json.Unmarshal(data, &mf); err != nil {
				t.Fatal(err)
			}
			edit(&mf)
			if data, err = json.Marshal(&mf); err != nil {
				t.Fatal(err)
			}
			if err := m.WriteManifest(data); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			m.Close()
		}
	}

	// A store written by a build that offered round-robin-by-row placement
	// records "rows" in its manifests. Its blocks live on other shards than
	// the hash would route them to, so the reopen must refuse it.
	t.Run("placement mismatch", func(t *testing.T) {
		dirs := newStore(t, 2)
		rewriteManifests(t, dirs, func(mf *manifest) { mf.Placement = "rows" })
		re, err := OpenSharded(dirs, ShardedOptions{Persist: true})
		if err == nil {
			re.Close()
			t.Fatal("reopen of a store written with rows placement succeeded")
		}
		if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), dirs[0]) ||
			!strings.Contains(err.Error(), `placement "rows"`) {
			t.Errorf("error does not name the shard and its stored placement: %v", err)
		}
	})

	// A store written by a build that offered a second block format records
	// that format in its manifests. Its files are not DAF, so the reopen
	// must refuse them, not serve them as DAF.
	t.Run("retired block format", func(t *testing.T) {
		dirs := newStore(t, 2)
		rewriteManifests(t, dirs, func(mf *manifest) { mf.Format = "lab-tree" })
		re, err := OpenSharded(dirs, ShardedOptions{Persist: true})
		if err == nil {
			re.Close()
			t.Fatal("reopen of a store written in another block format succeeded")
		}
		if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), `"lab-tree"`) {
			t.Errorf("error does not name the shard and its stored format: %v", err)
		}
	})

	t.Run("lost store file forces refill", func(t *testing.T) {
		dirs := newStore(t, 2)
		if err := os.Remove(filepath.Join(dirs[0], "A.daf")); err != nil {
			t.Fatal(err)
		}
		re, err := OpenSharded(dirs, ShardedOptions{Persist: true})
		if err != nil {
			t.Fatalf("a lost store file should drop the catalog entry, not fail the open: %v", err)
		}
		defer re.Close()
		if _, ok := re.SharedEntry("A"); ok {
			t.Error("catalog still serves an array whose store file is gone (stale/empty data)")
		}
	})
}

// Drop must uncatalog a persisted array so a reopen does not resurrect it.
func TestShardedDropUncatalogs(t *testing.T) {
	dirs := ShardDirs(t.TempDir(), 2)
	sm, err := OpenSharded(dirs, ShardedOptions{Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	arr := shardTestArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	fillArray(t, sm, arr, 1)
	if err := sm.RecordShared(arr, "fp"); err != nil {
		t.Fatal(err)
	}
	if err := sm.Drop("A", true); err != nil {
		t.Fatal(err)
	}
	sm.Close()
	re, err := OpenSharded(dirs, ShardedOptions{Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.SharedEntry("A"); ok {
		t.Error("dropped array still cataloged after reopen")
	}
}

// serializeDevices makes every local shard of sm serve one
// simulated-latency request at a time (Manager.serialDevice) — the regime
// where striping across shards buys parallel read bandwidth.
func serializeDevices(sm *ShardedManager) {
	for _, sd := range sm.shards {
		if m, ok := sd.(*Manager); ok {
			m.serialDevice = true
		}
	}
}

// Concurrent reads across shards must proceed in parallel: on serial
// simulated devices, reading N blocks spread over 4 shards should take
// roughly N/4 device-sleeps, not N.
func TestShardedParallelReads(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	const latency = 20 * time.Millisecond
	arr := shardTestArray("A")
	nBlocks := arr.GridRows * arr.GridCols // 20

	elapsed := func(shards int) time.Duration {
		sm, err := OpenSharded(ShardDirs(t.TempDir(), shards), ShardedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		serializeDevices(sm)
		if err := sm.Create(arr); err != nil {
			t.Fatal(err)
		}
		fillArray(t, sm, arr, 5)
		sm.SetLatency(latency, 0)
		start := time.Now()
		var wg sync.WaitGroup
		for r := int64(0); r < int64(arr.GridRows); r++ {
			for c := int64(0); c < int64(arr.GridCols); c++ {
				wg.Add(1)
				go func(r, c int64) {
					defer wg.Done()
					if _, err := sm.ReadBlock("A", r, c); err != nil {
						t.Error(err)
					}
				}(r, c)
			}
		}
		wg.Wait()
		return time.Since(start)
	}

	serial, striped := elapsed(1), elapsed(4)
	minSerial := time.Duration(nBlocks) * latency
	if serial < minSerial {
		t.Errorf("single serial device served %d reads in %v, floor %v", nBlocks, serial, minSerial)
	}
	// 4 shards should cut wall clock well below the serial floor; allow
	// generous scheduling slack (anything under 60% proves parallelism).
	if striped > serial*6/10 {
		t.Errorf("4-shard reads took %v vs %v single-device: cross-shard reads did not parallelize", striped, serial)
	}
}
