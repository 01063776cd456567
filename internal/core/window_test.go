package core

import (
	"errors"
	"reflect"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// TestRunWindowZeroEqualsRun: measuring from instruction 0 is exactly Run
// (with nothing to warm they must coincide bitwise).
func TestRunWindowZeroEqualsRun(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 8000, 3)
	for _, mode := range []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW} {
		cfg := DefaultConfig(500, mode)
		a, err := MustNew(cfg).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MustNew(cfg).RunWindow(tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: RunWindow(tr, 0) differs from Run(tr)", mode)
		}
	}
}

// TestRunWindowPartition: a window splits the trace at its boundary — the
// prefix is replayed, never measured, and the measured span is exactly
// RunWarmed over the suffix of a core that replayed the prefix.
func TestRunWindowPartition(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 8000, 5)
	cfg := DefaultConfig(500, circuit.ModeIRAW)

	whole, err := MustNew(cfg).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	const from = 3000
	win, err := MustNew(cfg).RunWindow(tr, from)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := win.Run.Instructions, uint64(len(tr.Insts)-from); got != want {
		t.Errorf("measured instructions %d, want %d", got, want)
	}
	if win.Run.Cycles >= whole.Run.Cycles {
		t.Errorf("measured cycles %d not smaller than the whole run's %d", win.Run.Cycles, whole.Run.Cycles)
	}

	c := MustNew(cfg)
	if err := c.WarmReplay(tr, from); err != nil {
		t.Fatal(err)
	}
	split, err := c.RunWarmed(tr, from)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(win, split) {
		t.Error("RunWindow differs from WarmReplay + RunWarmed")
	}
}

// TestRunWindowValidation: out-of-range boundaries are rejected.
func TestRunWindowValidation(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 100, 1)
	c := MustNew(DefaultConfig(500, circuit.ModeBaseline))
	for _, from := range []int{-1, 100, 101} {
		if _, err := c.RunWindow(tr, from); err == nil {
			t.Errorf("RunWindow(tr, %d) accepted an out-of-range boundary", from)
		}
	}
}

// TestMergeWindowResultsStitch: stitching the RunWindow results of a shard
// plan preserves instruction totals, recomputes Time from the stitched
// cycle count, and keeps the per-core DisabledLines constant un-summed.
func TestMergeWindowResultsStitch(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 9000, 2)
	cfg := DefaultConfig(450, circuit.ModeFaultyBits) // nonzero DisabledLines
	windows := trace.Shard(tr, 3000, 1000)
	if len(windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(windows))
	}
	results := make([]*Result, len(windows))
	var cycles uint64
	for i, w := range windows {
		c := MustNew(cfg)
		res, err := c.RunWindow(w.Trace, w.Warm)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
		cycles += res.Run.Cycles
	}
	st := MergeWindowResults(tr.Name, results)
	if st.TraceName != tr.Name {
		t.Errorf("TraceName %q, want %q", st.TraceName, tr.Name)
	}
	if got := st.Run.Instructions; got != uint64(len(tr.Insts)) {
		t.Errorf("stitched instructions %d, want %d", got, len(tr.Insts))
	}
	if st.Run.Cycles != cycles {
		t.Errorf("stitched cycles %d, want %d", st.Run.Cycles, cycles)
	}
	if want := float64(cycles) * st.Plan.CycleTime; st.Time != want {
		t.Errorf("stitched Time %v, want cycles x CycleTime = %v", st.Time, want)
	}
	if st.DL0.DisabledLines != results[0].DL0.DisabledLines {
		t.Errorf("DisabledLines summed across windows: %d vs per-window %d",
			st.DL0.DisabledLines, results[0].DL0.DisabledLines)
	}

	// Single-window stitch is the identity (plus the parent name).
	c := MustNew(cfg)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	one := MergeWindowResults(tr.Name, []*Result{res})
	if !reflect.DeepEqual(one, res) {
		t.Error("single-window stitch differs from the window result")
	}
}

// TestStopCheck: an installed stop check aborts a run with its error, and
// removing it restores normal operation on the same core.
func TestStopCheck(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 8000, 4)
	c := MustNew(DefaultConfig(500, circuit.ModeIRAW))
	boom := errors.New("preempted")
	c.SetStopCheck(func() error { return boom })
	if _, err := c.Run(tr); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	c.SetStopCheck(nil)
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(tr); err != nil {
		t.Fatalf("run after removing stop check: %v", err)
	}
}
