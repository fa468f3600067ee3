package buffer

import (
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// scanResistPool seeds a small hot array and a large scan array under the
// given format and policy, with pool capacity far below the scan length.
func scanResistPool(t *testing.T, format storage.Format, policy string, capBlocks int) *Pool {
	t.Helper()
	m, err := storage.NewManager(t.TempDir(), format)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	arrays := []*prog.Array{
		{Name: "hot", BlockRows: 8, BlockCols: 8, GridRows: 1, GridCols: 4},
		{Name: "scan", BlockRows: 8, BlockCols: 8, GridRows: 16, GridCols: 8},
	}
	blk := blas.NewMatrix(8, 8)
	for _, arr := range arrays {
		if err := m.Create(arr); err != nil {
			t.Fatal(err)
		}
		for r := int64(0); r < int64(arr.GridRows); r++ {
			for c := int64(0); c < int64(arr.GridCols); c++ {
				if err := m.WriteBlock(arr.Name, r, c, blk); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p, err := NewPoolOptions(m, Options{
		CapacityBytes: int64(capBlocks) * testBlockBytes,
		Policy:        policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runScanMix drives the workload of the scan-resistance property: a hot
// set of 4 blocks is warmed (two touches, so a scan-resistant policy can
// observe the re-reference) and then re-referenced every 16 scan blocks,
// while a sequential scan of 128 distinct blocks — 16x the pool capacity —
// churns through the pool. It returns the hot tenant's hit rate.
func runScanMix(t *testing.T, p *Pool) float64 {
	t.Helper()
	hot := p.TenantSession("hot", nil)
	scan := p.TenantSession("scan", nil)
	touchHot := func() {
		for c := int64(0); c < 4; c++ {
			if _, err := hot.Acquire("hot", 0, c); err != nil {
				t.Fatal(err)
			}
			hot.Unpin("hot", 0, c, 1)
		}
	}
	touchHot()
	touchHot() // second touch: the hot set is now observably re-referenced
	for r := int64(0); r < 16; r++ {
		for c := int64(0); c < 8; c++ {
			if _, err := scan.Acquire("scan", r, c); err != nil {
				t.Fatal(err)
			}
			scan.Unpin("scan", r, c, 1)
		}
		if c := (r + 1) * 8; c%16 == 0 {
			touchHot()
		}
	}
	ts := p.Stats().Tenants["hot"]
	return ts.HitRate()
}

// TestScanResistance is the property test for the segmented policy: a
// sequential scan of blocks far beyond pool capacity must not evict a
// concurrently re-referenced hot set. Under the segmented policy the hot
// set is promoted to the protected segment and survives (hit rate stays
// high); under plain LRU the same workload flushes it (hit rate
// collapses), which is exactly the regression the policy exists to
// prevent. Both on-disk formats are exercised.
func TestScanResistance(t *testing.T) {
	const capBlocks = 8 // pool holds 8 blocks; the scan touches 128
	for _, format := range []storage.Format{storage.FormatDAF, storage.FormatLABTree} {
		t.Run(format.String(), func(t *testing.T) {
			segmented := runScanMix(t, scanResistPool(t, format, PolicySegmented, capBlocks))
			lru := runScanMix(t, scanResistPool(t, format, PolicyLRU, capBlocks))
			if segmented < 0.85 {
				t.Errorf("segmented policy hot-set hit rate = %.2f, want >= 0.85 (scan must not evict the hot set)", segmented)
			}
			if lru > 0.5 {
				t.Errorf("LRU hot-set hit rate = %.2f under the scan mix; the property test lost its teeth", lru)
			}
			if segmented <= lru {
				t.Errorf("segmented (%.2f) must beat LRU (%.2f) on the hot set", segmented, lru)
			}
		})
	}
}

// The sticky eviction write-back error must surface through Stats.EvictErr
// as soon as an eviction fails — long before a Flush trips over it — and
// the next Flush returns and clears it.
func TestEvictErrSurfacedInStats(t *testing.T) {
	p, m := newTestPool(t, 1*testBlockBytes)
	if err := m.Create(&prog.Array{Name: "B", BlockRows: 8, BlockCols: 8, GridRows: 1, GridCols: 1}); err != nil {
		t.Fatal(err)
	}
	blk := blas.NewMatrix(8, 8)
	if err := p.Put("A", 0, 0, blk); err != nil {
		t.Fatal(err)
	}
	p.Unpin("A", 0, 0, 1)
	// Make the dirty frame's write-back fail: its array vanishes from the
	// manager (a dropped store behaves like a failing device here).
	if err := m.Drop("A", true); err != nil {
		t.Fatal(err)
	}
	// Displace it: the eviction's write-back fails, the caller still
	// succeeds... but reading "A" is impossible now, so install via Put.
	if err := p.Put("B", 0, 0, blk); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.EvictErr == "" {
		t.Fatal("Stats.EvictErr empty after a failed eviction write-back")
	}
	// The victim was re-inserted, not lost.
	if st.Frames != 2 {
		t.Fatalf("frames = %d, want the failed victim retained", st.Frames)
	}
	// Discard the doomed frame, then Flush surfaces the sticky error once.
	p.DiscardArray("A")
	p.Unpin("B", 0, 0, 1)
	if err := p.Flush(); err == nil {
		t.Fatal("Flush must surface the sticky eviction error")
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("second Flush: %v (sticky error must clear)", err)
	}
	if got := p.Stats().EvictErr; got != "" {
		t.Fatalf("Stats.EvictErr = %q after Flush cleared it", got)
	}
}
