package cache

import (
	"testing"
)

// TestWarmFillVisibleToTimedLookup: a warm-filled line hits a timed Lookup
// from the next cycle on, and its data reads back clean with the signature
// the fill wrote — the handoff contract between warm replay and the timed
// engine.
func TestWarmFillVisibleToTimedLookup(t *testing.T) {
	c := MustNew(Config{Name: "T", Sets: 8, Ways: 4, LineBytes: 64})
	c.SetIRAW(true, 3, true) // IRAW mode must not leak into warm writes
	const addr = 0x4040
	_, way, _, _, ok := c.WarmFill(0, addr, 0xDEADBEEF)
	if !ok {
		t.Fatal("warm fill rejected")
	}
	w, hit := c.Lookup(1, addr)
	if !hit || w != way {
		t.Fatalf("timed lookup after warm fill: hit=%v way=%d (installed %d)", hit, w, way)
	}
	sig, okRead := c.ReadData(1, c.SetOf(addr), w)
	if !okRead || sig != 0xDEADBEEF {
		t.Fatalf("warm-filled data reads (sig=%x, ok=%v), want clean 0xDEADBEEF", sig, okRead)
	}
	// Timing-free contract: the fill held no ports even under IRAW mode.
	for cyc := int64(0); cyc < 8; cyc++ {
		if c.Busy(cyc) {
			t.Fatalf("warm fill held ports at cycle %d", cyc)
		}
	}
	if s := c.Stats(); s.Accesses != 1 || s.Fills != 0 {
		// The single access is the timed Lookup above.
		t.Fatalf("warm fill moved statistics: %+v", s)
	}
}

// TestWarmLookupTouchesLRU: warm hits move recency exactly as timed hits
// do, so victim selection after a replay matches the replayed access order.
func TestWarmLookupTouchesLRU(t *testing.T) {
	c := MustNew(Config{Name: "T", Sets: 1, Ways: 2, LineBytes: 64})
	a0, a1, a2 := uint64(0x000), uint64(0x100), uint64(0x200)
	c.WarmFill(0, a0, 0)
	c.WarmFill(0, a1, 0)
	// Touch a0 so a1 becomes LRU.
	if _, hit := c.WarmLookup(a0); !hit {
		t.Fatal("warm lookup missed an installed line")
	}
	victim, _, _, evicted, ok := c.WarmFill(0, a2, 0)
	if !ok || !evicted || victim != a1 {
		t.Fatalf("warm eviction picked %x (evicted=%v), want LRU %x", victim, evicted, a1)
	}
}

// TestWarmStoreIntegrity: a store warmed functionally leaves the DL0 entry
// dirty and signature-consistent, so a timed load over it verifies clean.
func TestWarmStoreIntegrity(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	h.SetMode(TimingMode{Interrupted: true, N: 2, Avoid: true, MemCycles: 50})
	const addr = 0x1000_0040
	h.WarmStore(0, addr)
	res := h.Load(1, addr)
	if res.Missed {
		t.Fatal("timed load missed a warm-stored line")
	}
	if s := h.Stats(); s.IntegrityErrors != 0 || s.CorruptConsumed != 0 {
		t.Fatalf("warm store broke integrity: %+v", s)
	}
	// The dirty mark must survive into eviction accounting: overfill the
	// set and watch the dirty evict.
	set := h.DL0.SetOf(addr)
	ways := h.DL0.Config().Ways
	for i := 1; i <= ways; i++ {
		h.WarmLoad(0, addr+uint64(i*64*h.DL0.Config().Sets))
		_ = set
	}
	if evicts := h.DL0.Stats().DirtyEvicts; evicts != 0 {
		t.Fatalf("warm accesses moved eviction statistics: %d", evicts)
	}
}

// TestWarmLeavesNoTimingState: the full warm access mix leaves statistics,
// port holds, MSHR records and the STable untouched.
func TestWarmLeavesNoTimingState(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	h.SetMode(TimingMode{Interrupted: true, N: 2, Avoid: true, MemCycles: 50})
	for i := 0; i < 2000; i++ {
		pc := uint64(0x40_0000 + i*64)
		addr := uint64(0x1000_0000 + i*64)
		h.WarmFetch(0, pc)
		h.WarmLoad(0, addr)
		h.WarmStore(0, addr+8)
	}
	if s := (HierarchyStats{}); h.Stats() != s {
		t.Fatalf("warm accesses moved hierarchy statistics: %+v", h.Stats())
	}
	for _, c := range []*Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
		if s := c.Stats(); s.Accesses != 0 || s.Fills != 0 || s.FillStallCycles != 0 {
			t.Fatalf("%s: warm accesses moved statistics: %+v", c.Config().Name, s)
		}
		for cyc := int64(0); cyc < 16; cyc++ {
			if c.Busy(cyc) {
				t.Fatalf("%s: warm access held ports at cycle %d", c.Config().Name, cyc)
			}
		}
		if _, inflight := c.InFlightReady(0x1000_0000, 0); inflight {
			t.Fatalf("%s: warm access registered an in-flight fill", c.Config().Name)
		}
	}
	for _, e := range h.STab.Entries() {
		if e.Valid {
			t.Fatal("warm store entered the STable")
		}
	}
}

// TestOracleGCBounded: the integrity oracle's version map stays at DL0 size
// under streaming store traffic (one record per line ever stored would
// otherwise accumulate). After every store, each live record must belong
// to a DL0-resident line — the only lines whose signatures are compared.
func TestOracleGCBounded(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	h.SetMode(TimingMode{MemCycles: 20})
	dl0Lines := h.DL0.Config().Sets * h.DL0.Config().Ways
	cycle := int64(0)
	const distinct = 4000 // >10x the DL0's 384 lines
	for i := 0; i < distinct; i++ {
		// The first store write-allocates the line; its fill is readable
		// only from the next cycle, so the second store is the DL0 hit
		// that bumps the line's oracle version.
		addr := uint64(0x1000_0000) + uint64(i)*64
		for _, a := range []uint64{addr, addr + 8} {
			res := h.CommitStore(cycle, a, uint64(i))
			cycle = res.DoneCycle + 50
		}
		if h.OracleLines() == 0 {
			t.Fatalf("store %d: no oracle records: the stream never hit the DL0", i)
		}
		for line := range h.lineVer {
			if !h.DL0.Peek(line) {
				t.Fatalf("store %d: oracle record for line %#x, which is not in the DL0", i, line)
			}
		}
	}
	if got := h.OracleLines(); got > dl0Lines {
		t.Errorf("%d live oracle records after %d distinct stored lines (DL0 holds %d)", got, distinct, dl0Lines)
	}
	// The GC must not break integrity.
	if s := h.Stats(); s.IntegrityErrors != 0 {
		t.Errorf("integrity errors under streaming stores: %d", s.IntegrityErrors)
	}
}
