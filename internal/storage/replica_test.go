package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riotshare/internal/blas"
)

// Replication must be invisible to readers: across shard counts and
// replica counts, every block round-trips bit-identically, each block is
// physically mirrored on exactly k shards, and write requests are amplified
// exactly k-fold.
func TestReplicatedRoundTrip(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, replicas := range []int{1, 2} {
			name := fmt.Sprintf("%s/shards=%d/replicas=%d", placementName, shards, replicas)
			t.Run(name, func(t *testing.T) {
				sm, err := OpenSharded(ShardDirs(t.TempDir(), shards), ShardedOptions{Replicas: replicas})
				if err != nil {
					t.Fatal(err)
				}
				defer sm.Close()
				arr := shardTestArray("A")
				if err := sm.Create(arr); err != nil {
					t.Fatal(err)
				}
				want := fillArray(t, sm, arr, 11)
				assertBlocks(t, sm, arr, want)

				if got := sm.Stats().WriteReqs; got != int64(replicas*len(want)) {
					t.Errorf("WriteReqs = %d, want %d (%d blocks x %d replicas)", got, replicas*len(want), len(want), replicas)
				}
				if got := sm.DegradedReads(); got != 0 {
					t.Errorf("healthy store counted %d degraded reads", got)
				}
				// Each block lives on exactly its k ring-order replicas.
				for coord := range want {
					p := sm.primaryFor("A", coord[0], coord[1])
					for i, m := range sm.shards {
						onShard := false
						for j := 0; j < replicas; j++ {
							if (p+j)%shards == i {
								onShard = true
							}
						}
						_, err := m.ReadBlock("A", coord[0], coord[1])
						if onShard && err != nil {
							t.Errorf("replica shard %d missing A[%d,%d]: %v", i, coord[0], coord[1], err)
						}
						// DAF files are sparse, so a non-replica shard may
						// return zeros rather than an error; the
						// write-amplification check above already bounds
						// the copies to exactly k.
					}
				}
			})
		}
	}
}

// Losing a shard under 2-way replication must degrade reads — identical
// data served from replicas, counted per primary shard — not fail them;
// Repair must re-mirror the shard and reset the counter.
func TestDegradeAndRepair(t *testing.T) {
	dirs := ShardDirs(t.TempDir(), 3)
	sm, err := OpenSharded(dirs, ShardedOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	arr := shardTestArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := fillArray(t, sm, arr, 23)

	if err := sm.DegradeShard(1); err != nil {
		t.Fatal(err)
	}
	if got := sm.Degraded(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Degraded() = %v, want [1]", got)
	}
	// Remove the directory outright: fallbacks must come from replicas on
	// other shards, not surviving file descriptors.
	if err := os.RemoveAll(dirs[1]); err != nil {
		t.Fatal(err)
	}
	assertBlocks(t, sm, arr, want)
	if got := sm.DegradedReads(); got == 0 {
		t.Error("no degraded reads counted while a shard is down")
	}
	ss := sm.ShardStats()
	if !ss[1].Degraded {
		t.Error("ShardStats does not mark shard 1 degraded")
	}
	if ss[1].DegradedReads == 0 {
		t.Error("ShardStats counts no degraded reads against the lost shard")
	}
	if ss[0].DegradedReads != 0 || ss[2].DegradedReads != 0 {
		t.Errorf("healthy shards charged with degraded reads: %d / %d", ss[0].DegradedReads, ss[2].DegradedReads)
	}

	// Writes while degraded land on the surviving replicas only and remain
	// readable.
	blk := want[[2]int64{0, 0}]
	if err := sm.WriteBlock("A", 0, 0, blk); err != nil {
		t.Fatalf("write while degraded: %v", err)
	}

	if err := sm.Repair(1); err != nil {
		t.Fatal(err)
	}
	if got := sm.Degraded(); len(got) != 0 {
		t.Fatalf("Degraded() = %v after repair, want none", got)
	}
	if got := sm.DegradedReads(); got != 0 {
		t.Errorf("DegradedReads = %d after repair, want 0 (counter resets when the shard heals)", got)
	}
	// Every read now comes off a healthy replica set with no new fallbacks.
	assertBlocks(t, sm, arr, want)
	if got := sm.DegradedReads(); got != 0 {
		t.Errorf("reads after repair still fall back (%d degraded reads)", got)
	}
	// The repaired shard holds its blocks again: degrade the OTHER replica
	// shards one at a time is impossible (coverage), so verify directly.
	for coord := range want {
		p := sm.primaryFor("A", coord[0], coord[1])
		mirrored := p == 1 || (p+1)%3 == 1
		if !mirrored {
			continue
		}
		got, err := sm.shards[1].ReadBlock("A", coord[0], coord[1])
		if err != nil {
			t.Fatalf("repaired shard missing A[%d,%d]: %v", coord[0], coord[1], err)
		}
		w := want[coord]
		for i := range w.Data {
			if got.Data[i] != w.Data[i] {
				t.Fatalf("repaired shard A[%d,%d] element %d = %v, want %v", coord[0], coord[1], i, got.Data[i], w.Data[i])
			}
		}
	}
}

// Degrading must be refused when it would strand blocks: with no
// replication every shard is someone's only copy, and with k-way
// replication the k-th concurrent loss kills a full replica set.
func TestDegradeRefusesCoverageLoss(t *testing.T) {
	sm, err := OpenSharded(ShardDirs(t.TempDir(), 2), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	if err := sm.DegradeShard(0); err == nil {
		t.Fatal("degrading an unreplicated shard succeeded — its blocks have no other copy")
	}

	sm2, err := OpenSharded(ShardDirs(t.TempDir(), 3), ShardedOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sm2.Close()
	if err := sm2.DegradeShard(0); err != nil {
		t.Fatal(err)
	}
	if err := sm2.DegradeShard(1); err == nil {
		t.Fatal("degrading both shards of a replica set succeeded")
	}
	if got := sm2.Degraded(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("refused degrade left Degraded() = %v, want [0]", got)
	}
}

// A replicated, persistent store must reopen with a lost shard directory:
// the open degrades the shard instead of failing, the catalog survives,
// reads fall back, and Repair + reopen restores full health.
func TestReplicatedPersistLostShardDir(t *testing.T) {
	dirs := ShardDirs(t.TempDir(), 3)
	opt := ShardedOptions{Persist: true, Replicas: 2}
	sm, err := OpenSharded(dirs, opt)
	if err != nil {
		t.Fatal(err)
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

	if err := os.RemoveAll(dirs[1]); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dirs, opt)
	if err != nil {
		t.Fatalf("reopen with a lost shard dir under 2-way replication failed: %v", err)
	}
	if got := re.Degraded(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Degraded() = %v, want [1]", got)
	}
	if e, ok := re.SharedEntry("X"); !ok || e.Fingerprint != "fp-1" {
		t.Fatalf("catalog lost on degraded reopen: %+v ok=%v", e, ok)
	}
	assertBlocks(t, re, arr, want)
	if re.DegradedReads() == 0 {
		t.Error("no degraded reads counted on the degraded reopen")
	}
	// The degraded shard must NOT have been given a manifest — a crash now
	// has to leave it degraded, never half-healthy.
	if _, err := os.Stat(filepath.Join(dirs[1], manifestName)); !os.IsNotExist(err) {
		t.Error("degraded shard was handed a manifest before repair")
	}
	if err := re.Repair(1); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	healed, err := OpenSharded(dirs, opt)
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	defer healed.Close()
	if got := healed.Degraded(); len(got) != 0 {
		t.Fatalf("repaired store reopened degraded: %v", got)
	}
	assertBlocks(t, healed, arr, want)
	if healed.DegradedReads() != 0 {
		t.Error("repaired store still serves degraded reads")
	}
}

// When every replica of some block is lost, the open must fail with a
// clean error — not silently serve an empty store.
func TestReplicatedCoverageLostFailsOpen(t *testing.T) {
	dirs := ShardDirs(t.TempDir(), 3)
	opt := ShardedOptions{Persist: true, Replicas: 2}
	sm, err := OpenSharded(dirs, opt)
	if err != nil {
		t.Fatal(err)
	}
	arr := shardTestArray("X")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	fillArray(t, sm, arr, 3)
	if err := sm.RecordShared(arr, "fp"); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	// Shards 1 and 2 are a full replica set for blocks primary on 1.
	if err := os.RemoveAll(dirs[1]); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dirs[2]); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSharded(dirs, opt)
	if err == nil {
		t.Fatal("open succeeded with a whole replica set missing")
	}
	if !strings.Contains(err.Error(), "coverage lost") {
		t.Errorf("error does not explain the coverage loss: %v", err)
	}
}

// The replication factor is part of the layout: reopening with a different
// one must be refused, and a factor above the shard count is rejected up
// front.
func TestReplicasValidation(t *testing.T) {
	if _, err := OpenSharded(ShardDirs(t.TempDir(), 2), ShardedOptions{Replicas: 3}); err == nil {
		t.Error("replicas > shards accepted")
	}

	dirs := ShardDirs(t.TempDir(), 3)
	sm, err := OpenSharded(dirs, ShardedOptions{Persist: true, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	arr := shardTestArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	if err := sm.RecordShared(arr, "fp"); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSharded(dirs, ShardedOptions{Persist: true})
	if err == nil {
		t.Fatal("reopen with a different replication factor succeeded")
	}
	if !strings.Contains(err.Error(), "replication") {
		t.Errorf("error does not explain the replication mismatch: %v", err)
	}
}

// Manifest crash-durability: a torn MANIFEST.json (truncated mid-file, with
// a stale .tmp left beside it) must either be recovered from replicas —
// serving the surviving shards' fingerprints, never the stale ones — or
// fail the open with an error naming the shard. The .tmp file is never
// read.
func TestTornManifest(t *testing.T) {
	tear := func(t *testing.T, dirs []string, shard int) {
		t.Helper()
		path := filepath.Join(dirs[shard], manifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A crash mid-write without the fsync discipline: half the bytes.
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		// And a stale temp file from the interrupted writer, carrying a
		// fingerprint that must never be served.
		stale := strings.Replace(string(data), "fp-good", "fp-stale", 1)
		if err := os.WriteFile(path+".tmp", []byte(stale), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("unreplicated fails naming the shard", func(t *testing.T) {
		dirs := ShardDirs(t.TempDir(), 3)
		sm, err := OpenSharded(dirs, ShardedOptions{Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		arr := shardTestArray("A")
		if err := sm.Create(arr); err != nil {
			t.Fatal(err)
		}
		fillArray(t, sm, arr, 1)
		if err := sm.RecordShared(arr, "fp-good"); err != nil {
			t.Fatal(err)
		}
		if err := sm.Close(); err != nil {
			t.Fatal(err)
		}
		tear(t, dirs, 2)
		_, err = OpenSharded(dirs, ShardedOptions{Persist: true})
		if err == nil {
			t.Fatal("open over a torn manifest succeeded without replication")
		}
		if !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "manifest") {
			t.Errorf("error does not name the torn shard: %v", err)
		}
	})

	t.Run("replicated recovers, never stale", func(t *testing.T) {
		dirs := ShardDirs(t.TempDir(), 3)
		opt := ShardedOptions{Persist: true, Replicas: 2}
		sm, err := OpenSharded(dirs, opt)
		if err != nil {
			t.Fatal(err)
		}
		arr := shardTestArray("A")
		if err := sm.Create(arr); err != nil {
			t.Fatal(err)
		}
		want := fillArray(t, sm, arr, 1)
		if err := sm.RecordShared(arr, "fp-good"); err != nil {
			t.Fatal(err)
		}
		if err := sm.Close(); err != nil {
			t.Fatal(err)
		}
		tear(t, dirs, 2)
		re, err := OpenSharded(dirs, opt)
		if err != nil {
			t.Fatalf("replicated open did not recover from the torn manifest: %v", err)
		}
		defer re.Close()
		if got := re.Degraded(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("Degraded() = %v, want [2]", got)
		}
		e, ok := re.SharedEntry("A")
		if !ok {
			t.Fatal("catalog lost")
		}
		if e.Fingerprint != "fp-good" {
			t.Fatalf("fingerprint %q served, want %q (stale .tmp must never be read)", e.Fingerprint, "fp-good")
		}
		assertBlocks(t, re, arr, want)
	})
}

// createStores must unwind on partial failure: if shard i refuses the
// store, shards 0..i-1 must be closed and unregistered so a retry does not
// hit "already created" and no descriptors leak.
func TestCreateUnwindsOnPartialFailure(t *testing.T) {
	dirs := ShardDirs(t.TempDir(), 2)
	sm, err := OpenSharded(dirs, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	// Block shard 1's store path with a directory: opening it fails
	// mid-loop, after shard 0 succeeded.
	obstruction := filepath.Join(dirs[1], "A.daf")
	if err := os.MkdirAll(obstruction, 0o755); err != nil {
		t.Fatal(err)
	}
	arr := shardTestArray("A")
	err = sm.Create(arr)
	if err == nil {
		t.Fatal("Create succeeded over an obstructed shard")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("error does not name the failing shard: %v", err)
	}
	// The retry must hit the same obstruction — not shard 0's leftover
	// registration.
	err = sm.Create(arr)
	if err == nil {
		t.Fatal("retry succeeded while the obstruction remains")
	}
	if strings.Contains(err.Error(), "already created") {
		t.Fatalf("retry tripped over a leaked store from the failed attempt: %v", err)
	}
	// Clear the obstruction: the retry now succeeds and round-trips.
	if err := os.RemoveAll(obstruction); err != nil {
		t.Fatal(err)
	}
	if err := sm.Create(arr); err != nil {
		t.Fatalf("Create after clearing the obstruction: %v", err)
	}
	want := fillArray(t, sm, arr, 9)
	assertBlocks(t, sm, arr, want)
}

// Drop must report every failed shard by index, not just the first.
func TestDropAggregatesShardErrors(t *testing.T) {
	dirs := ShardDirs(t.TempDir(), 2)
	sm, err := OpenSharded(dirs, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	arr := shardTestArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	// Delete both store files behind the manager's back: Drop's file
	// removal then fails on every shard.
	for _, dir := range dirs {
		if err := os.Remove(filepath.Join(dir, "A.daf")); err != nil {
			t.Fatal(err)
		}
	}
	err = sm.Drop("A", true)
	if err == nil {
		t.Fatal("Drop reported success while every file removal failed")
	}
	for _, wantShard := range []string{"shard 0", "shard 1"} {
		if !strings.Contains(err.Error(), wantShard) {
			t.Errorf("aggregated error does not name %s: %v", wantShard, err)
		}
	}
}

// atomicWriteFile must commit all-or-nothing and leave no temp file behind.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := atomicWriteFile(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("content %q err %v, want %q", got, err, "two")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	// A stale .tmp from a crashed writer is simply overwritten.
	if err := os.WriteFile(path+".tmp", []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(path, []byte("three"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "three" {
		t.Fatalf("content %q after overwriting a stale temp, want %q", got, "three")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("stale temp file survived the next atomic write")
	}
}

// Repair must start the healing shard from empty store files: blocks left
// on disk from before the loss — or from a same-named array that was
// dropped and re-created while the shard was down — must never resurface
// after the repair.
func TestRepairWipesStaleStores(t *testing.T) {
	sm, err := OpenSharded(ShardDirs(t.TempDir(), 3), ShardedOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	arr := shardTestArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	stale := fillArray(t, sm, arr, 40)

	// Lose shard 1 with its directory (and stale A.daf) intact, then
	// retire the array entirely and start a new incarnation of it with no
	// blocks written.
	if err := sm.DegradeShard(1); err != nil {
		t.Fatal(err)
	}
	if err := sm.Drop("A", true); err != nil {
		t.Fatal(err)
	}
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	if err := sm.Repair(1); err != nil {
		t.Fatal(err)
	}
	// Every block the repaired shard would serve as primary must NOT carry
	// the dropped incarnation's data.
	for coord, old := range stale {
		if sm.primaryFor("A", coord[0], coord[1]) != 1 {
			continue
		}
		got, err := sm.ReadBlock("A", coord[0], coord[1])
		if err != nil {
			continue // unwritten in the new incarnation: an error is correct
		}
		same := true
		for i := range old.Data {
			if got.Data[i] != old.Data[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("A[%d,%d]: repair resurrected the dropped incarnation's data", coord[0], coord[1])
		}
	}
}

// Repairing a healthy shard is a no-op — it must not wipe live stores.
func TestRepairHealthyShardNoop(t *testing.T) {
	sm, err := OpenSharded(ShardDirs(t.TempDir(), 3), ShardedOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	arr := shardTestArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := fillArray(t, sm, arr, 41)
	if err := sm.Repair(1); err != nil {
		t.Fatal(err)
	}
	assertBlocks(t, sm, arr, want)
	if got := sm.Stats().WriteReqs; got != int64(2*len(want)) {
		t.Errorf("no-op repair issued writes: WriteReqs = %d, want %d", got, 2*len(want))
	}
}

// Writes racing with Repair must never be lost on the healing shard: once
// the repair completes, the shard holds the concurrently written values,
// not older replica copies the scan read before the writes landed.
func TestRepairConcurrentWrites(t *testing.T) {
	sm, err := OpenSharded(ShardDirs(t.TempDir(), 3), ShardedOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	arr := shardTestArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	fillArray(t, sm, arr, 50)
	if err := sm.DegradeShard(1); err != nil {
		t.Fatal(err)
	}
	// New values for every block, distinct from the fill.
	next := map[[2]int64]*blas.Matrix{}
	rng := rand.New(rand.NewSource(51))
	for r := int64(0); r < int64(arr.GridRows); r++ {
		for c := int64(0); c < int64(arr.GridCols); c++ {
			next[[2]int64{r, c}] = randBlock(rng, arr)
		}
	}
	done := make(chan error, 1)
	go func() { done <- sm.Repair(1) }()
	for coord, blk := range next {
		if err := sm.WriteBlock("A", coord[0], coord[1], blk); err != nil {
			t.Error(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The writer finished after Repair returned at the latest; shard 1
	// must now hold the new value of every block it mirrors.
	for coord, blk := range next {
		p := sm.primaryFor("A", coord[0], coord[1])
		if p != 1 && (p+1)%3 != 1 {
			continue
		}
		got, err := sm.shards[1].ReadBlock("A", coord[0], coord[1])
		if err != nil {
			t.Fatalf("repaired shard missing A[%d,%d]: %v", coord[0], coord[1], err)
		}
		for i := range blk.Data {
			if got.Data[i] != blk.Data[i] {
				t.Fatalf("A[%d,%d] element %d on the repaired shard = %v, want the concurrently written %v",
					coord[0], coord[1], i, got.Data[i], blk.Data[i])
			}
		}
	}
	assertBlocks(t, sm, arr, next)
}
