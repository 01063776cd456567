package sim

import (
	"context"
	"reflect"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// TestPlanFor: the effective windowing plan is the documented pure function
// of (WindowInsts, WarmInsts, trace length).
func TestPlanFor(t *testing.T) {
	for _, tc := range []struct {
		name              string
		win, warm         int
		n                 int
		wantWin, wantWarm int
	}{
		{"opt-out", -1, 0, 1_000_000, 0, 0},
		{"auto short trace", 0, 0, autoWindowThreshold - 1, 0, 0},
		{"auto long trace", 0, 0, 700_000, 87_500, -1},
		{"auto exact threshold", 0, 0, autoWindowThreshold, 25_000, -1},
		{"explicit window", 10_000, 0, 700_000, 10_000, -1},
		{"explicit warm", 10_000, 3_000, 700_000, 10_000, 3_000},
		{"full-history spelled out", 10_000, -1, 700_000, 10_000, -1},
	} {
		r := &Runner{WindowInsts: tc.win, WarmInsts: tc.warm}
		win, warm := r.planFor(tc.n)
		if win != tc.wantWin || warm != tc.wantWarm {
			t.Errorf("%s: planFor(%d) = (%d, %d), want (%d, %d)",
				tc.name, tc.n, win, warm, tc.wantWin, tc.wantWarm)
		}
	}
}

// TestCheckpointEquivalence: sharded execution with the checkpoint store —
// cold and with a hot store — is bit-identical to the live-replay reference
// path (DisableCheckpoints), and the hot pass actually restores.
func TestCheckpointEquivalence(t *testing.T) {
	tr := workload.LongTrace(60_000, 3)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	ctx := context.Background()

	ref, _, err := (&Runner{Workers: 2, WindowInsts: 15_000, DisableCheckpoints: true}).
		RunCell(ctx, nil, "ref", cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	st, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		res, _, err := (&Runner{Workers: 2, WindowInsts: 15_000, CkptStore: st}).
			RunCell(ctx, nil, "ckpt", cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("round %d: checkpointed run differs from live-replay reference", round)
		}
	}
	s := st.Stats()
	if s.Captures == 0 {
		t.Errorf("no snapshots captured (stats %+v)", s)
	}
	if s.Restores == 0 {
		t.Errorf("hot store never restored (stats %+v)", s)
	}

	// Vcc-independence at the runner level: a different operating point
	// restores the very same snapshots instead of capturing new ones.
	before := st.Stats().Captures
	cfg2 := core.DefaultConfig(650, circuit.ModeBaseline)
	if _, _, err := (&Runner{Workers: 2, WindowInsts: 15_000, CkptStore: st}).
		RunCell(ctx, nil, "ckpt-650", cfg2, tr); err != nil {
		t.Fatal(err)
	}
	if after := st.Stats().Captures; after != before {
		t.Errorf("sweeping a second operating point captured %d new snapshots; want full reuse", after-before)
	}
}

// TestAutoWindowing: with the zero-value runner, long traces shard into
// autoWindowCount windows and short traces stay unsharded; a negative
// window opts sharded execution out entirely.
func TestAutoWindowing(t *testing.T) {
	// LongTrace's phase rounding can shave a few instructions off the
	// requested length, so aim comfortably past the threshold.
	long := workload.LongTrace(autoWindowThreshold+10_000, 5)
	if len(long.Insts) < autoWindowThreshold {
		t.Fatalf("test trace too short: %d insts", len(long.Insts))
	}
	cfg := core.DefaultConfig(500, circuit.ModeBaseline)

	windowsOf := func(r *Runner, tr *trace.Trace) int {
		t.Helper()
		var n int
		for u := range r.Stream(context.Background(), []PointSpec{{Label: "auto", Cfg: cfg, Traces: []*trace.Trace{tr}}}) {
			if u.Err != nil {
				t.Fatal(u.Err)
			}
			n = u.Windows
		}
		return n
	}

	if got := windowsOf(&Runner{}, long); got != autoWindowCount {
		t.Errorf("auto windows on a long trace = %d, want %d", got, autoWindowCount)
	}
	if got := windowsOf(&Runner{WindowInsts: -1}, long); got != 1 {
		t.Errorf("windows with explicit opt-out = %d, want 1", got)
	}
	short := workload.Suite(20_000, 1)[0]
	if got := windowsOf(&Runner{}, short); got != 1 {
		t.Errorf("auto windows on a short trace = %d, want 1", got)
	}
}
