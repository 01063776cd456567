package cache

import (
	"testing"

	"lowvcc/internal/stable"
)

func testHierarchy(t *testing.T, mode TimingMode) *Hierarchy {
	t.Helper()
	h := MustNewHierarchy(DefaultHierarchyConfig())
	h.SetMode(mode)
	return h
}

var safeIRAW = TimingMode{Interrupted: true, N: 1, Avoid: true, MemCycles: 60}
var baselineMode = TimingMode{Interrupted: false, N: 0, Avoid: false, MemCycles: 40}

func TestLoadMissThenHit(t *testing.T) {
	h := testHierarchy(t, baselineMode)
	r1 := h.Load(100, 0x10000000)
	if !r1.Missed {
		t.Fatal("cold load hit")
	}
	if r1.ReadyCycle <= 100 {
		t.Fatalf("miss ready at %d", r1.ReadyCycle)
	}
	r2 := h.Load(r1.ReadyCycle+5, 0x10000000)
	if r2.Missed {
		t.Fatal("warm load missed")
	}
}

func TestLoadMergesInFlightMiss(t *testing.T) {
	h := testHierarchy(t, baselineMode)
	r1 := h.Load(100, 0x10000000)
	r2 := h.Load(101, 0x10000008) // same line, while in flight
	if !r2.Missed {
		t.Fatal("expected merged miss")
	}
	if r2.ReadyCycle > r1.ReadyCycle {
		t.Fatalf("merged miss completes at %d after the original %d", r2.ReadyCycle, r1.ReadyCycle)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	h := testHierarchy(t, safeIRAW)
	// Warm the line, then store and load the same word immediately.
	h.Load(100, 0x10000040)
	sr := h.CommitStore(300, 0x10000040, 42)
	lr := h.Load(sr.DoneCycle+1, 0x10000040)
	if !lr.STableForward {
		t.Fatal("immediate load after store not forwarded by the STable")
	}
	if lr.CorruptConsumed {
		t.Fatal("forwarded load consumed corrupt data")
	}
	if h.Stats().STableForwards != 1 {
		t.Fatalf("STableForwards = %d", h.Stats().STableForwards)
	}
}

func TestSetMatchRepairsCollateral(t *testing.T) {
	h := testHierarchy(t, safeIRAW)
	setStride := uint64(h.DL0.Config().LineBytes * h.DL0.Config().Sets)
	a := uint64(0x10000040)
	b := a + setStride // same DL0 set, different line
	h.Load(100, a)
	h.Load(300, b)
	// Store to a, then immediately load b: set-only match; the set read
	// destroys a's stabilizing entry, the replay repairs it.
	sr := h.CommitStore(500, a, 7)
	lr := h.Load(sr.DoneCycle+1, b)
	if lr.CorruptConsumed {
		t.Fatal("set-match load consumed corrupt data")
	}
	if lr.ReplayStall == 0 {
		t.Fatal("set match did not trigger a replay")
	}
	if h.Stats().IntegrityErrors != 0 {
		t.Fatalf("unrepaired destruction: %+v", h.Stats())
	}
	// After the windows close, a's data is intact.
	lr2 := h.Load(sr.DoneCycle+10, a)
	if lr2.CorruptConsumed || lr2.Missed {
		t.Fatalf("repaired line wrong: %+v", lr2)
	}
}

func TestUnsafeModeCorrupts(t *testing.T) {
	h := testHierarchy(t, TimingMode{Interrupted: true, N: 1, Avoid: false, MemCycles: 60})
	h.Load(100, 0x10000040)
	sr := h.CommitStore(300, 0x10000040, 9)
	lr := h.Load(sr.DoneCycle+1, 0x10000040) // inside the window, no STable
	if !lr.CorruptConsumed {
		t.Fatal("unsafe in-window load did not consume corrupt data")
	}
	if h.ViolationReads() == 0 {
		t.Fatal("no violations recorded in unsafe mode")
	}
}

func TestFillStallAfterMiss(t *testing.T) {
	h := testHierarchy(t, safeIRAW)
	r1 := h.Load(100, 0x10000000)
	fillCycle := r1.ReadyCycle
	// An access to the DL0 right at the fill completes only after the
	// stabilization window (ports held).
	if !h.DL0.Busy(fillCycle) || !h.DL0.Busy(fillCycle+1) {
		t.Fatal("DL0 ports not held through the fill window")
	}
	if h.DL0.Busy(fillCycle + 2) {
		t.Fatal("DL0 ports held too long")
	}
}

func TestTLBWalkCounted(t *testing.T) {
	h := testHierarchy(t, baselineMode)
	h.Load(100, 0x10000000)
	if h.Stats().TLBWalks != 1 {
		t.Fatalf("TLBWalks = %d, want 1", h.Stats().TLBWalks)
	}
	h.Load(200, 0x10000100) // same page
	if h.Stats().TLBWalks != 1 {
		t.Fatalf("TLBWalks = %d after same-page access", h.Stats().TLBWalks)
	}
}

func TestFetchMissAndWalk(t *testing.T) {
	h := testHierarchy(t, baselineMode)
	fr := h.FetchInst(100, 0x400000)
	if !fr.Missed || !fr.Walked {
		t.Fatalf("cold fetch = %+v, want miss+walk", fr)
	}
	fr2 := h.FetchInst(fr.ReadyCycle+2, 0x400000)
	if fr2.Missed {
		t.Fatal("warm fetch missed")
	}
}

func TestDSideSerialization(t *testing.T) {
	// A load delayed by a TLB walk pushes the next access behind it: DL0
	// access times are monotone in program order (the single LSU).
	h := testHierarchy(t, baselineMode)
	r1 := h.Load(100, 0x10000000) // walks the DTLB (+30 cycles)
	r2 := h.Load(101, 0x11000000) // different page: walks again
	if r2.ReadyCycle <= r1.ReadyCycle-60 {
		t.Fatalf("second load overtook the first: %d vs %d", r2.ReadyCycle, r1.ReadyCycle)
	}
}

func TestWriteAllocateStore(t *testing.T) {
	h := testHierarchy(t, safeIRAW)
	sr := h.CommitStore(100, 0x10000200, 5)
	if !sr.Missed {
		t.Fatal("cold store did not miss")
	}
	// The line is now present and dirty; a later load hits.
	lr := h.Load(sr.DoneCycle+10, 0x10000200)
	if lr.Missed {
		t.Fatal("load after write-allocate missed")
	}
}

func TestDirtyEvictionThroughWCB(t *testing.T) {
	h := testHierarchy(t, baselineMode)
	ways := h.DL0.Config().Ways
	setStride := uint64(h.DL0.Config().LineBytes * h.DL0.Config().Sets)
	// Dirty one line, then evict it by filling ways+1 lines of its set.
	h.CommitStore(100, 0x10000000, 1)
	cycle := int64(1000)
	for i := 1; i <= ways; i++ {
		h.Load(cycle, 0x10000000+uint64(i)*setStride)
		cycle += 200
	}
	if h.WCB.Allocs == 0 {
		t.Fatal("dirty eviction never used the WCB/EB")
	}
}

func TestModeValidation(t *testing.T) {
	h := testHierarchy(t, baselineMode)
	for _, m := range []TimingMode{
		{Interrupted: true, N: 0, Avoid: true, MemCycles: 10},
		{Interrupted: true, N: 99, Avoid: true, MemCycles: 10},
		{Interrupted: false, N: 0, Avoid: false, MemCycles: 0},
	} {
		func() {
			defer func() { recover() }()
			h.SetMode(m)
			t.Errorf("mode %+v accepted", m)
		}()
	}
}

func TestSTableDisabledWithoutAvoidance(t *testing.T) {
	h := testHierarchy(t, baselineMode)
	if h.STab.Active() != 0 {
		t.Fatal("STable active at baseline")
	}
	h.SetMode(safeIRAW)
	if h.STab.Active() == 0 {
		t.Fatal("STable inactive under IRAW avoidance")
	}
	_ = stable.MatchNone // keep the import for the match-kind reference
}

func TestViolationAccountingCleanAtBaseline(t *testing.T) {
	h := testHierarchy(t, baselineMode)
	cycle := int64(100)
	for i := 0; i < 200; i++ {
		h.Load(cycle, 0x10000000+uint64(i*8))
		cycle += 3
		h.CommitStore(cycle, 0x10000000+uint64(i*8), uint64(i))
		cycle += 3
	}
	if v := h.ViolationReads(); v != 0 {
		t.Fatalf("baseline violations = %d", v)
	}
	if h.Stats().CorruptConsumed != 0 || h.Stats().IntegrityErrors != 0 {
		t.Fatalf("baseline corruption: %+v", h.Stats())
	}
}
