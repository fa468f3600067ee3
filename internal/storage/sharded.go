// sharded.go stripes a block store across several shards — local
// directories standing in for independent devices, remote riotblockd
// servers standing on other machines, mixed freely (a shard spec is a
// directory path or a host:port address; see IsRemoteSpec). Every block of
// every array has a primary shard, chosen by a deterministic hash of the
// array name and block coordinates, so any process opening the same shard
// specs sees the same layout. Each shard is a full block store (a
// single-directory Manager, or one behind a riotblockd server):
// physical I/O counters stay per-shard (per-device utilization is visible),
// concurrent reads of blocks on different shards proceed in parallel (each
// shard is its own device), and coalescing still works because one block
// always routes to one shard.
//
// With Replicas = k > 1 every block is mirrored on its replica set: its
// primary shard plus the next k-1 shards in ring order (replicaOf). Losing
// a shard then degrades reads instead of losing data: reads whose primary
// is gone fall back to a surviving replica (counted per shard as
// DegradedReads), writes skip the lost shard, and Repair re-mirrors the
// lost shard's blocks from the survivors so the store heals in place. A
// remote shard whose server stops answering (connection refused, retries
// exhausted — see ErrShardUnavailable) is degraded automatically the same
// way, so a killed riotblockd costs fallback reads, not failed queries.
//
// Every degrade, explicit (DegradeShard) or automatic, obeys one rule: a
// shard whose loss would leave some block with no live replica is not
// degraded — it stays live, and the op that hit its failure errors.
//
// A sharded store can be persistent: a manifest (MANIFEST.json, written
// atomically and fsynced) in every shard root records the layout (format,
// shard count, replication, placement) and a catalog of shared input arrays
// — metadata plus the fill fingerprint of their synthetic data. Reopening
// the same shards restores the catalog, so a restarted server can serve
// persisted inputs without refilling them; a missing or corrupt manifest
// marks its shard degraded when replication still covers every block, and
// fails the open with a clean error naming the shard when it does not.
package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
	"riotshare/internal/telemetry"
)

// placementName is the one block→shard mapping manifests record. It is
// written on every manifest and checked on reopen, so a store written by a
// build that also knew the "rows" placement is refused rather than routed
// to the wrong shards.
const placementName = "hash"

// placeBlock maps one block to its primary shard in [0, shards) by an
// FNV-1a hash of the array name and block coordinates: deterministic, so
// every open of the same shards routes blocks identically, and
// statistically even across shards for any access pattern.
func placeBlock(array string, r, c int64, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(array))
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(r))
	binary.LittleEndian.PutUint64(buf[8:], uint64(c))
	h.Write(buf[:])
	return int(h.Sum64() % uint64(shards))
}

// manifestVersion guards the on-disk manifest schema. Replication was added
// without a bump: manifests written before it decode with Replicas 0, which
// normalizes to 1 — exactly their behavior.
const manifestVersion = 1

// CatalogEntry is one cataloged (persistent) array: enough metadata to
// reopen its stores, plus the fill fingerprint identifying its synthetic
// contents.
type CatalogEntry struct {
	BlockRows int `json:"blockRows"`
	BlockCols int `json:"blockCols"`
	GridRows  int `json:"gridRows"`
	GridCols  int `json:"gridCols"`
	// LogicalBlockBytes preserves paper-scale I/O accounting across
	// restarts (it may exceed the physical block size on scaled-down
	// data).
	LogicalBlockBytes int64 `json:"logicalBlockBytes"`
	// Fingerprint identifies the deterministic synthetic fill (seed, name,
	// shape, fill version). A server reopening the store skips refilling
	// an input whose expected fingerprint matches; a mismatch forces a
	// refill instead of serving stale data.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Array rebuilds the array metadata a catalog entry describes.
func (e CatalogEntry) Array(name string) *prog.Array {
	return &prog.Array{
		Name:      name,
		BlockRows: e.BlockRows, BlockCols: e.BlockCols,
		GridRows: e.GridRows, GridCols: e.GridCols,
		LogicalBlockBytes: e.LogicalBlockBytes,
	}
}

// entryFor catalogs an array.
func entryFor(arr *prog.Array, fingerprint string) CatalogEntry {
	return CatalogEntry{
		BlockRows: arr.BlockRows, BlockCols: arr.BlockCols,
		GridRows: arr.GridRows, GridCols: arr.GridCols,
		LogicalBlockBytes: arr.LogicalBlockBytes,
		Fingerprint:       fingerprint,
	}
}

// manifest is the persisted per-shard-root layout + catalog.
type manifest struct {
	Version int `json:"version"`
	// Format is always written as "daf", so builds that also knew a
	// second block format still reopen the store, and it is checked on
	// reopen, so a store they wrote in that other format is refused.
	Format     string                  `json:"format"`
	Shards     int                     `json:"shards"`
	ShardIndex int                     `json:"shardIndex"`
	Placement  string                  `json:"placement"`
	Replicas   int                     `json:"replicas,omitempty"`
	Arrays     map[string]CatalogEntry `json:"arrays"`
}

// ShardedOptions configures OpenSharded.
type ShardedOptions struct {
	// Replicas mirrors each block on its primary shard plus the next
	// Replicas-1 shards in ring order (0 or 1 = no replication). With k >=
	// 2 a lost shard degrades reads to the surviving replicas instead of
	// failing the open, and Repair re-mirrors it in place. Must not exceed
	// the shard count; validated against the persisted manifests on
	// reopen.
	Replicas int
	// Persist enables the manifest catalog: the layout is validated (or
	// written) at open, and shared arrays recorded with RecordShared
	// survive restarts.
	Persist bool
	// Remote tunes the client connecting to each remote (host:port) shard:
	// pool size, timeouts, retry policy. The zero value gets defaults; it
	// is ignored for local directory shards.
	Remote RemoteOptions
}

// ShardedManager stripes blocks across N shards — local directories and
// remote riotblockd servers, mixed freely — behind the Backend interface,
// optionally mirroring each block on k shards. It is safe for concurrent
// use; requests to different shards proceed in parallel.
type ShardedManager struct {
	specs    []string // one per shard: directory path or host:port
	shards   []shard
	replicas int
	persist  bool

	// degraded marks shards that are offline (lost directory, torn
	// manifest, an unreachable server, or an explicit DegradeShard): reads
	// skip them and fall back to a replica, writes skip them, Repair
	// brings them back. healing marks a degraded shard mid-Repair: reads
	// still skip it, but writes flow through (best effort) so blocks
	// updated during the re-mirror scan are not lost when the degraded
	// flag clears. degradedReads[i] counts reads whose primary shard i
	// could not serve them — the ongoing cost of running degraded; Repair
	// resets it.
	degraded      []atomic.Bool
	healing       []atomic.Bool
	degradedReads []atomic.Int64

	// readLat/writeLat are per-shard latency histograms, installed by
	// RegisterMetrics before the store takes traffic; nil when the
	// store is uninstrumented (the common case in tests).
	readLat  []*telemetry.Histogram
	writeLat []*telemetry.Histogram

	// degradeMu serializes degrade's decision (flag flip + coverage check
	// + manifest removal), so two concurrent degrades, explicit or
	// automatic, cannot both pass the coverage check and leave a block
	// with no live replica.
	degradeMu sync.Mutex

	// healMu orders Repair's per-block copies against concurrent writes:
	// writers hold it shared for the duration of a replica-set write,
	// Repair holds it exclusive around each (read replica, write target)
	// pair, so a copy of an older replica value can never land on top of
	// a newer concurrent write. It exists precisely to serialize that
	// block I/O. //riotvet:iolock
	healMu sync.RWMutex

	mu       sync.Mutex
	catalog  map[string]CatalogEntry
	arrays   map[string]*prog.Array // every registered array, for Repair
	reopened bool
}

// openShard builds one shard from its spec: a RemoteShard client for a
// host:port address, a Manager over the directory otherwise.
func openShard(spec string, opt ShardedOptions) (shard, error) {
	if IsRemoteSpec(spec) {
		return NewRemoteShard(spec, opt.Remote), nil
	}
	m, err := NewManager(spec, FormatDAF)
	if err != nil {
		return nil, fmt.Errorf("storage: shard %s: %w", spec, err)
	}
	return m, nil
}

// OpenSharded opens (or creates) a sharded store over the given shard
// specs — directory paths, host:port riotblockd addresses, or a mix. With
// Persist set it validates any existing manifests and loads the shared
// catalog, reopening the stores of every cataloged array; a cataloged array
// whose store files have gone missing is dropped from the catalog (forcing
// a refill) rather than served as empty data. A shard whose manifest is
// missing or corrupt — or whose server is unreachable — fails the open with
// an error naming it, unless the store is replicated and every block is
// still covered by a surviving replica, in which case the shard is merely
// degraded (see Degraded and Repair).
func OpenSharded(specs []string, opt ShardedOptions) (*ShardedManager, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("storage: OpenSharded needs at least one shard directory or address")
	}
	replicas := opt.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(specs) {
		return nil, fmt.Errorf("storage: %d-way replication needs at least %d shards (have %d)",
			replicas, replicas, len(specs))
	}
	sm := &ShardedManager{
		specs:         specs,
		replicas:      replicas,
		degraded:      make([]atomic.Bool, len(specs)),
		healing:       make([]atomic.Bool, len(specs)),
		degradedReads: make([]atomic.Int64, len(specs)),
		catalog:       make(map[string]CatalogEntry),
		arrays:        make(map[string]*prog.Array),
	}
	for _, spec := range specs {
		sd, err := openShard(spec, opt)
		if err != nil {
			sm.Close()
			return nil, err
		}
		sm.shards = append(sm.shards, sd)
	}
	if opt.Persist {
		if err := sm.loadManifests(); err != nil {
			sm.Close()
			return nil, err
		}
		// Set only once the manifests are loaded: a shard the open
		// degrades has no usable manifest, and degrade must neither
		// delete a torn one nor ask a dead server to.
		sm.persist = true
		if err := sm.reopenCatalog(); err != nil {
			sm.Close()
			return nil, err
		}
		if err := sm.saveManifests(); err != nil {
			sm.Close()
			return nil, err
		}
	}
	return sm, nil
}

// loadManifests reads and cross-validates the per-shard manifests. Either
// no shard has one (a fresh store) or every shard must carry a structurally
// consistent one. A shard whose manifest is missing or corrupt (a lost
// directory, a torn write, an unreachable server) is degraded when
// replication still covers every block, and is a clean error naming the
// shard otherwise. Array entries that diverge across surviving shards (a
// crash between manifest writes) are dropped from the effective catalog so
// their inputs get refilled instead of served stale.
//
// Runs only from Open, before the manager is shared, so it touches
// sm.catalog without sm.mu. //riotvet:locked
func (sm *ShardedManager) loadManifests() error {
	manifests := make([]*manifest, len(sm.shards))
	lost := make([]error, len(sm.shards)) // why shard i has no usable manifest
	found := 0
	for i, sd := range sm.shards {
		data, err := sd.ReadManifest()
		if err != nil {
			// A missing file, a missing directory, and a dead server all
			// look the same here: the shard's manifest is unreadable.
			// Anything else (permissions, I/O error) is also unusable;
			// remember why.
			lost[i] = fmt.Errorf("storage: shard %d (%s): read manifest: %w", i, sm.specs[i], err)
			continue
		}
		var mf manifest
		if err := json.Unmarshal(data, &mf); err != nil {
			lost[i] = fmt.Errorf("storage: shard %d (%s): corrupt manifest: %w", i, sm.specs[i], err)
			continue
		}
		manifests[i] = &mf
		found++
	}
	if found == 0 {
		return nil // fresh store: manifests are written at open
	}
	var survivors []*manifest
	for i, mf := range manifests {
		if mf == nil {
			if errors.Is(lost[i], fs.ErrNotExist) {
				lost[i] = fmt.Errorf("storage: shard %d (%s): manifest missing while %d other shard(s) have one — shard directory lost or wrong -shard-dirs", i, sm.specs[i], found)
			}
			continue
		}
		if mf.Version != manifestVersion {
			return fmt.Errorf("storage: shard %d (%s): manifest version %d, want %d", i, sm.specs[i], mf.Version, manifestVersion)
		}
		if mf.Format != dafName {
			return fmt.Errorf("storage: shard %d (%s): stored format %q, this build reads only %q", i, sm.specs[i], mf.Format, dafName)
		}
		if mf.Shards != len(sm.specs) {
			return fmt.Errorf("storage: shard %d (%s): store was written with %d shard(s), reopened with %d — block placement would not match", i, sm.specs[i], mf.Shards, len(sm.specs))
		}
		if mf.ShardIndex != i {
			return fmt.Errorf("storage: shard %d (%s): directory is shard %d of the store — shard directories are ordered", i, sm.specs[i], mf.ShardIndex)
		}
		if mf.Placement != placementName {
			return fmt.Errorf("storage: shard %d (%s): store was written with placement %q, this build places only by %q", i, sm.specs[i], mf.Placement, placementName)
		}
		stored := mf.Replicas
		if stored <= 0 {
			stored = 1
		}
		if stored != sm.replicas {
			return fmt.Errorf("storage: shard %d (%s): store was written with %d-way replication, reopened with %d — replica placement would not match", i, sm.specs[i], stored, sm.replicas)
		}
		survivors = append(survivors, mf)
	}
	// Shards without a usable manifest are degraded under degrade's rule;
	// the first one it refuses fails the open with that shard's error.
	for i, mf := range manifests {
		if mf != nil {
			continue
		}
		if err := sm.degrade(i, false); err != nil {
			if sm.replicas > 1 {
				return fmt.Errorf("storage: coverage lost — %v: %w", err, lost[i])
			}
			return lost[i]
		}
	}
	// Effective catalog: entries identical across every surviving shard.
	for name, e := range survivors[0].Arrays {
		same := true
		for _, mf := range survivors[1:] {
			if other, ok := mf.Arrays[name]; !ok || other != e {
				same = false
				break
			}
		}
		if same {
			sm.catalog[name] = e
		}
	}
	sm.reopened = true
	return nil
}

// replicaOf returns shard j (0 <= j < Replicas) of the replica set of the
// blocks whose primary shard is p: the primary, then the next shards in
// ring order. Every walk over a replica set goes through it.
func (sm *ShardedManager) replicaOf(p, j int) int { return (p + j) % len(sm.shards) }

// uncoveredPrimary returns the first primary shard whose whole replica set
// is degraded — the coverage-lost condition — or -1 when every block still
// has a live copy.
func (sm *ShardedManager) uncoveredPrimary() int {
	for p := range sm.shards {
		covered := false
		for j := 0; j < sm.replicas; j++ {
			if !sm.degraded[sm.replicaOf(p, j)].Load() {
				covered = true
				break
			}
		}
		if !covered {
			return p
		}
	}
	return -1
}

// reopenCatalog reopens the stores of every cataloged array. An array whose
// store file is missing on any live shard is dropped from the catalog: its
// data is gone, and refilling beats silently serving zeros from a fresh
// file. Degraded shards are not consulted — their blocks live on the
// surviving replicas.
//
// Runs only from Open, before the manager is shared, so it touches
// sm.catalog without sm.mu. //riotvet:locked
func (sm *ShardedManager) reopenCatalog() error {
	for name, e := range sm.catalog {
		intact := true
		for i, sd := range sm.shards {
			if sm.degraded[i].Load() {
				continue
			}
			if ok, err := sd.StoreExists(name); err != nil || !ok {
				intact = false
				break
			}
		}
		if !intact {
			delete(sm.catalog, name)
			continue
		}
		// Ensure, not Create: a remote shard's server outlives this
		// client session and may still have the store registered.
		if err := sm.createStores(e.Array(name), true); err != nil {
			return err
		}
	}
	return nil
}

// saveManifests writes the manifest to every live shard root, each
// atomically and fsynced (Manager.WriteManifest, which a remote shard's
// server calls too), so a crash can never leave a torn or empty
// MANIFEST.json. Degraded shards get no manifest — that is exactly
// what marks them degraded on the next open, until Repair rewrites one.
func (sm *ShardedManager) saveManifests() error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.saveManifestsLocked()
}

func (sm *ShardedManager) saveManifestsLocked() error {
	if !sm.persist {
		return nil
	}
	for i, sd := range sm.shards {
		if sm.degraded[i].Load() {
			continue
		}
		mf := manifest{
			Version:    manifestVersion,
			Format:     dafName,
			Shards:     len(sm.specs),
			ShardIndex: i,
			Placement:  placementName,
			Replicas:   sm.replicas,
			Arrays:     sm.catalog,
		}
		data, err := json.MarshalIndent(&mf, "", "  ")
		if err != nil {
			return err
		}
		if err := sd.WriteManifest(append(data, '\n')); err != nil {
			return fmt.Errorf("storage: shard %d (%s): write manifest: %w", i, sm.specs[i], err)
		}
	}
	return nil
}

// createStores opens the array's store on every live shard (each shard
// holds the blocks whose replica sets include it). On a mid-loop failure
// the stores already created are unwound — closed and unregistered — so the
// error leaks no file descriptors and a retry does not trip over "already
// created" on the shards that had succeeded. A shard failure skip forgives
// does not fail the create. With ensure set the per-shard creates are
// idempotent — the catalog-reopen path, where a remote shard's long-lived
// server may still have the store registered.
func (sm *ShardedManager) createStores(arr *prog.Array, ensure bool) error {
	var created []int
	for i, sd := range sm.shards {
		if sm.offline(i) {
			continue
		}
		create := sd.Create
		if ensure {
			create = sd.Ensure
		}
		if err := create(arr); err != nil {
			if sm.skip(i, err) {
				continue
			}
			for _, j := range created {
				_ = sm.shards[j].Drop(arr.Name, false)
			}
			return fmt.Errorf("storage: shard %d (%s): %w", i, sm.specs[i], err)
		}
		created = append(created, i)
	}
	sm.mu.Lock()
	sm.arrays[arr.Name] = arr
	sm.mu.Unlock()
	return nil
}

// Create opens the store for an array on every live shard.
func (sm *ShardedManager) Create(arr *prog.Array) error {
	return sm.createStores(arr, false)
}

// CreateAll opens stores for every array of a program.
func (sm *ShardedManager) CreateAll(p *prog.Program) error {
	for _, arr := range p.Arrays {
		if err := sm.Create(arr); err != nil {
			return err
		}
	}
	return nil
}

// primaryFor routes one block to its primary shard index.
func (sm *ShardedManager) primaryFor(array string, r, c int64) int {
	return placeBlock(array, r, c, len(sm.shards))
}

// offline reports whether shard i should be skipped by writes, creates,
// and drops: degraded and not currently healing. A healing shard takes
// writes again (so the re-mirror scan cannot race ahead of live traffic)
// but stays invisible to reads until Repair completes.
func (sm *ShardedManager) offline(i int) bool {
	return sm.degraded[i].Load() && !sm.healing[i].Load()
}

// skip is the one rule for what shard i's failure err means to an op: it is
// forgiven on a healing shard (its Repair re-mirrors what it misses) and
// once degrade takes an unreachable shard offline; otherwise it is the
// op's failure.
func (sm *ShardedManager) skip(i int, err error) bool {
	if sm.healing[i].Load() {
		return true
	}
	return unreachable(err) && sm.degrade(i, false) == nil
}

// unreachable reports whether err is a shard's persistent connection
// failure (ErrShardUnavailable): its server serves nothing, stale or
// fresh, until it is back and repaired.
func unreachable(err error) bool { return errors.Is(err, ErrShardUnavailable) }

// degrade takes shard i offline — reads fall back to its replicas, writes
// skip it, and a persistent store removes its manifest so a reopen sees it
// degraded too — unless it is being repaired or its loss would leave some
// block with no live replica. explicit (DegradeShard) also refuses when
// the manifest cannot be removed, since a restart would reopen the shard
// healthy while this process skipped its writes (an unreachable server is
// exempt: it serves no stale data while down), and then closes the
// shard's stores so no read is served from descriptors of lost files. An
// automatic degrade (skip) removes the manifest best effort: the failing
// server cannot answer a removal either (see docs/operations.md for the
// recovered-server caveat).
func (sm *ShardedManager) degrade(i int, explicit bool) error {
	sm.degradeMu.Lock()
	if sm.healing[i].Load() {
		sm.degradeMu.Unlock()
		return fmt.Errorf("storage: shard %d is being repaired", i)
	}
	if sm.degraded[i].Load() {
		sm.degradeMu.Unlock()
		return nil
	}
	sm.degraded[i].Store(true)
	var err error
	if p := sm.uncoveredPrimary(); p >= 0 {
		err = fmt.Errorf("storage: cannot degrade shard %d: blocks with primary shard %d would have no surviving replica (%d-way replication)", i, p, sm.replicas)
	} else if sm.persist {
		if rmErr := sm.shards[i].RemoveManifest(); rmErr != nil && explicit && !unreachable(rmErr) {
			err = fmt.Errorf("storage: shard %d (%s): remove manifest: %w", i, sm.specs[i], rmErr)
		}
	}
	if err != nil {
		sm.degraded[i].Store(false)
	}
	sm.degradeMu.Unlock()
	if err != nil || !explicit {
		return err
	}
	for _, arr := range sm.registered() {
		_ = sm.shards[i].Drop(arr.Name, false) // best effort: the files may already be gone
	}
	return nil
}

// registered snapshots every registered array, in name order.
func (sm *ShardedManager) registered() []*prog.Array {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	arrays := make([]*prog.Array, 0, len(sm.arrays))
	for _, arr := range sm.arrays {
		arrays = append(arrays, arr)
	}
	sort.Slice(arrays, func(a, b int) bool { return arrays[a].Name < arrays[b].Name })
	return arrays
}

// WriteBlock stores one block on every live shard of its replica set.
// Degraded shards are skipped — Repair re-mirrors them later — and so is a
// failing shard skip forgives; a write with no live replica at all is an
// error (the open refuses such a store, so this only guards racing
// DegradeShard calls).
func (sm *ShardedManager) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	sm.healMu.RLock()
	defer sm.healMu.RUnlock()
	p := sm.primaryFor(array, r, c)
	wrote := 0
	var errs []error
	for j := 0; j < sm.replicas; j++ {
		i := sm.replicaOf(p, j)
		if sm.offline(i) {
			continue
		}
		t0 := time.Now()
		err := sm.shards[i].WriteBlock(array, r, c, blk)
		observeSince(sm.writeLat, i, t0)
		switch {
		case err == nil:
			wrote++
		case !sm.skip(i, err):
			errs = append(errs, fmt.Errorf("storage: shard %d (%s): %w", i, sm.specs[i], err))
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	if wrote == 0 {
		return fmt.Errorf("storage: write %s: every replica shard is degraded", prog.BlockID{Array: array, R: r, C: c})
	}
	return nil
}

// ReadBlock fetches one block from its primary shard, falling back along
// its replica set when the primary is degraded or fails — each fallback
// served is counted against the primary as a DegradedRead. A failing
// shard goes through skip, so an unreachable one is degraded on the spot
// and later reads go straight to the replicas. Concurrent reads of blocks
// on different shards proceed fully in parallel (independent devices);
// concurrent reads of the same block coalesce inside the shard that
// serves them.
func (sm *ShardedManager) ReadBlock(array string, r, c int64) (*blas.Matrix, error) {
	p := sm.primaryFor(array, r, c)
	var firstErr error
	for j := 0; j < sm.replicas; j++ {
		i := sm.replicaOf(p, j)
		if sm.degraded[i].Load() {
			continue
		}
		t0 := time.Now()
		blk, err := sm.shards[i].ReadBlock(array, r, c)
		observeSince(sm.readLat, i, t0)
		if err == nil {
			if i != p {
				sm.degradedReads[p].Add(1)
			}
			return blk, nil
		}
		sm.skip(i, err) // the next replica is tried either way
		if firstErr == nil {
			firstErr = fmt.Errorf("storage: shard %d (%s): %w", i, sm.specs[i], err)
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("storage: read %s: every replica shard is degraded", prog.BlockID{Array: array, R: r, C: c})
	}
	return nil, firstErr
}

// DegradeShard takes one shard offline by hand (see degrade): its open
// stores are closed, reads fall back to replicas, writes skip it, and on a
// persistent store its manifest is removed. It fails when losing the shard
// would leave some block with no live replica. Repair undoes it.
func (sm *ShardedManager) DegradeShard(shard int) error {
	if shard < 0 || shard >= len(sm.shards) {
		return fmt.Errorf("storage: shard %d out of range (%d shards)", shard, len(sm.shards))
	}
	return sm.degrade(shard, true)
}

// Repair re-mirrors one degraded shard from the surviving replicas: the
// shard's leftover store files are wiped (they may hold blocks from before
// the loss, or from since-dropped arrays — re-reading them would serve
// stale data), every block whose replica set includes the shard is read
// from a live copy and rewritten there, the shard's degraded flag and
// DegradedReads counter are cleared, and — on a persistent store — its
// manifest is rewritten, so the next open sees a healthy shard. Repairing
// a remote shard requires its riotblockd to be reachable again (the server
// owns the directory); repairing one that is still down fails cleanly and
// leaves the shard degraded.
//
// Repair is safe against live traffic: once the scan starts the shard
// accepts write-through (healing state; reads still skip it), and each
// block copy excludes concurrent writers, so a copy of an older replica
// value can never overwrite a newer concurrent write. Blocks no surviving
// replica can produce are skipped (they were never written); losing them
// entirely is the coverage-lost condition the open already refuses. A
// shard that is not degraded needs no repair: Repair returns nil without
// touching it; an unreplicated store has nothing to repair from, degraded
// or not, and Repair says so.
func (sm *ShardedManager) Repair(shard int) error {
	n := len(sm.shards)
	if shard < 0 || shard >= n {
		return fmt.Errorf("storage: shard %d out of range (%d shards)", shard, n)
	}
	if sm.replicas < 2 {
		return fmt.Errorf("storage: repair needs replication (replicas=%d): no replica holds shard %d's blocks", sm.replicas, shard)
	}
	if !sm.degraded[shard].Load() {
		return nil
	}
	if !sm.healing[shard].CompareAndSwap(false, true) {
		return fmt.Errorf("storage: shard %d is already being repaired", shard)
	}
	defer sm.healing[shard].Store(false)
	arrays := sm.registered()
	// The lost shard may be gone directory and all (or its server may have
	// just come back); ready it, then start every store from an empty file
	// — anything left on disk predates the loss and must not survive the
	// re-mirror.
	target := sm.shards[shard]
	if err := target.PrepareRepair(); err != nil {
		return fmt.Errorf("storage: repair shard %d (%s): %w", shard, sm.specs[shard], err)
	}
	for _, arr := range arrays {
		if err := target.WipeStore(arr.Name); err != nil {
			return fmt.Errorf("storage: repair shard %d (%s): wipe stale %s: %w", shard, sm.specs[shard], arr.Name, err)
		}
		if err := target.Ensure(arr); err != nil {
			return fmt.Errorf("storage: repair shard %d (%s): %w", shard, sm.specs[shard], err)
		}
	}
	for _, arr := range arrays {
		for r := int64(0); r < int64(arr.GridRows); r++ {
			for c := int64(0); c < int64(arr.GridCols); c++ {
				if err := sm.copyBlock(arr.Name, r, c, shard); err != nil {
					return err
				}
			}
		}
	}
	sm.degraded[shard].Store(false)
	sm.degradedReads[shard].Store(0)
	return sm.saveManifests()
}

// copyBlock re-mirrors one block onto the healing shard if the shard is in
// the block's replica set. The copy runs under the exclusive side of
// healMu, so it cannot interleave with (and then overwrite) a concurrent
// replica-set write of the same block.
func (sm *ShardedManager) copyBlock(array string, r, c int64, shard int) error {
	p := sm.primaryFor(array, r, c)
	j := 0
	for j < sm.replicas && sm.replicaOf(p, j) != shard {
		j++
	}
	if j == sm.replicas {
		return nil // not one of the shard's blocks
	}
	sm.healMu.Lock()
	defer sm.healMu.Unlock()
	var blk *blas.Matrix
	for j := 0; j < sm.replicas; j++ {
		i := sm.replicaOf(p, j)
		if i == shard || sm.degraded[i].Load() {
			continue
		}
		if b, err := sm.shards[i].ReadBlock(array, r, c); err == nil {
			blk = b
			break
		}
	}
	if blk == nil {
		return nil // never written; nothing to mirror
	}
	if err := sm.shards[shard].WriteBlock(array, r, c, blk); err != nil {
		return fmt.Errorf("storage: repair shard %d (%s): %s: %w", shard, sm.specs[shard], prog.BlockID{Array: array, R: r, C: c}, err)
	}
	return nil
}

// Drop closes and unregisters the array's stores on every live shard and,
// if the array was cataloged, removes it from the persisted catalog. Shard
// failures are aggregated — every failed shard is named — rather than
// reported first-only; a failure skip forgives is not reported.
func (sm *ShardedManager) Drop(array string, deleteFile bool) error {
	var errs []error
	for i, sd := range sm.shards {
		if sm.offline(i) {
			continue
		}
		if err := sd.Drop(array, deleteFile); err != nil && !sm.skip(i, err) {
			errs = append(errs, fmt.Errorf("storage: shard %d (%s): %w", i, sm.specs[i], err))
		}
	}
	sm.mu.Lock()
	delete(sm.arrays, array)
	if _, ok := sm.catalog[array]; ok {
		delete(sm.catalog, array)
		if err := sm.saveManifestsLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	sm.mu.Unlock()
	return errors.Join(errs...)
}

// Stats sums the physical I/O counters of one ShardStats snapshot. Remote
// shards report their server's counters (cumulative since the server
// started); degraded shards are not polled and, like an unreachable
// server, contribute zeros.
func (sm *ShardedManager) Stats() Stats {
	total, _ := sumShards(sm.ShardStats())
	return total
}

// sumShards folds a ShardStats snapshot into the store's totals: physical
// I/O and degraded reads.
func sumShards(shards []ShardStats) (total Stats, degradedReads int64) {
	for _, sh := range shards {
		total.ReadReqs += sh.ReadReqs
		total.ReadBytes += sh.ReadBytes
		total.WriteReqs += sh.WriteReqs
		total.WriteBytes += sh.WriteBytes
		degradedReads += sh.DegradedReads
	}
	return total, degradedReads
}

// ShardStats is one shard's physical I/O with its spec (directory or
// address), degraded state, and degraded-read count.
type ShardStats struct {
	// Dir is the shard's spec: its directory path, or its host:port
	// address for a remote shard.
	Dir string `json:"dir"`
	// Degraded marks a shard that is offline: reads it would have served
	// fall back to replicas, writes skip it, Repair brings it back.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReads counts reads whose primary is this shard that a
	// replica had to serve instead — the ongoing cost of running degraded.
	// Repair resets it.
	DegradedReads int64 `json:"degradedReads,omitempty"`
	// Remote is a riotblockd shard's client-side connection counters; nil
	// for a local directory.
	Remote *RemoteStats `json:"remote,omitempty"`
	Stats
}

// ShardStats snapshots per-shard physical I/O, in shard order — the
// per-device utilization view block placement is judged by, plus each
// shard's degraded state, fallback-read count and, for a remote shard, its
// client's dial/retry/timeout counts. It is the store's whole snapshot.
// Degraded shards are not polled (a remote one's server may be down); they
// report zero I/O.
func (sm *ShardedManager) ShardStats() []ShardStats {
	out := make([]ShardStats, len(sm.shards))
	for i, sd := range sm.shards {
		out[i] = ShardStats{
			Dir:           sm.specs[i],
			Degraded:      sm.degraded[i].Load(),
			DegradedReads: sm.degradedReads[i].Load(),
		}
		if rs, ok := sd.(*RemoteShard); ok {
			rst := rs.RemoteStats()
			out[i].Remote = &rst
		}
		if !out[i].Degraded {
			out[i].Stats = sd.Stats()
		}
	}
	return out
}

// Replicas returns the replication factor (1 = unreplicated).
func (sm *ShardedManager) Replicas() int { return sm.replicas }

// Degraded lists the currently degraded shard indexes, in order.
func (sm *ShardedManager) Degraded() []int {
	var out []int
	for i := range sm.degraded {
		if sm.degraded[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// DegradedReads sums the fallback reads of one ShardStats snapshot — zero
// on a fully healthy store.
func (sm *ShardedManager) DegradedReads() int64 {
	_, n := sumShards(sm.ShardStats())
	return n
}

// Reopened reports whether OpenSharded found an existing manifest — the
// open-existing (restart) path as opposed to a fresh store.
func (sm *ShardedManager) Reopened() bool { return sm.reopened }

// SharedEntry returns the cataloged metadata and fingerprint of a
// persistent shared array, if present.
func (sm *ShardedManager) SharedEntry(name string) (CatalogEntry, bool) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	e, ok := sm.catalog[name]
	return e, ok
}

// RecordShared catalogs a filled shared input array under its fill
// fingerprint and persists the manifest to every live shard root. No-op
// without Persist.
func (sm *ShardedManager) RecordShared(arr *prog.Array, fingerprint string) error {
	if !sm.persist {
		return nil
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.catalog[arr.Name] = entryFor(arr, fingerprint)
	return sm.saveManifestsLocked()
}

// SetLatency configures the simulated per-request latency on every local
// shard (see Manager.SetLatency); each sleeps independently, like
// separate devices. Remote shards are real servers and are left alone.
func (sm *ShardedManager) SetLatency(read, write time.Duration) {
	for _, sd := range sm.shards {
		if m, ok := sd.(*Manager); ok {
			m.SetLatency(read, write)
		}
	}
}

// Close closes every shard (local stores; remote client connections — the
// servers stay up), aggregating failures so every failed shard is named.
func (sm *ShardedManager) Close() error {
	var errs []error
	for i, sd := range sm.shards {
		if err := sd.Close(); err != nil {
			errs = append(errs, fmt.Errorf("storage: close shard %d (%s): %w", i, sm.specs[i], err))
		}
	}
	return errors.Join(errs...)
}

// ShardDirs derives N shard directory paths under one root (shard-0 …
// shard-N-1) — the default layout when explicit directories (separate
// devices) are not given.
func ShardDirs(root string, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("shard-%d", i))
	}
	return dirs
}
