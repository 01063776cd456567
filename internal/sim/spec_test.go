package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
)

// TestSweepSpecRoundTrip: the wire form preserves every field a remote
// worker needs to recompute the cell grid.
func TestSweepSpecRoundTrip(t *testing.T) {
	spec := SweepSpec{
		InstsPerTrace:   2000,
		SeedsPerProfile: 1,
		Modes:           []string{"baseline", "iraw"},
		LevelsMV:        []int{500, 400},
		WindowInsts:     1000,
		WarmInsts:       -1,
		Width:           4,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got SweepSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.InstsPerTrace != spec.InstsPerTrace || got.WarmInsts != spec.WarmInsts ||
		got.Width != spec.Width || len(got.Modes) != 2 || len(got.LevelsMV) != 2 {
		t.Fatalf("round trip mangled the spec: %+v", got)
	}

	modes, err := got.CircuitModes()
	if err != nil {
		t.Fatal(err)
	}
	if modes[0] != circuit.ModeBaseline || modes[1] != circuit.ModeIRAW {
		t.Fatalf("CircuitModes = %v", modes)
	}
	levels := got.Levels()
	if len(levels) != 2 || levels[0] != 500 || levels[1] != 400 {
		t.Fatalf("Levels = %v", levels)
	}
	r := got.NewRunner()
	if r.WindowInsts != 1000 || r.WarmInsts != -1 || r.Width != 4 {
		t.Fatalf("NewRunner dropped windowing or width: %+v", r)
	}
	back := r.SweepSpec(SuiteSpec{InstsPerTrace: got.InstsPerTrace, SeedsPerProfile: got.SeedsPerProfile}, modes)
	back.LevelsMV = got.LevelsMV
	if !reflect.DeepEqual(back, got) {
		t.Fatalf("Runner.SweepSpec = %+v, want NewRunner's spec %+v back", back, got)
	}
}

// TestSweepSpecValidateRejects: the admission check rejects every
// structurally broken spec a client could submit.
func TestSweepSpecValidateRejects(t *testing.T) {
	good := SweepSpec{InstsPerTrace: 1000, SeedsPerProfile: 1, Modes: []string{"baseline"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	optOut := good
	optOut.WindowInsts = -1
	if err := optOut.Validate(); err != nil {
		t.Fatalf("negative window (the sharding opt-out spelling) rejected: %v", err)
	}
	for name, mutate := range map[string]func(*SweepSpec){
		"zero insts":       func(s *SweepSpec) { s.InstsPerTrace = 0 },
		"huge insts":       func(s *SweepSpec) { s.InstsPerTrace = 1 << 40 },
		"huge insts×seeds": func(s *SweepSpec) { s.InstsPerTrace, s.SeedsPerProfile = 2_000_000, 64 },
		"zero seeds":       func(s *SweepSpec) { s.SeedsPerProfile = 0 },
		"no modes":         func(s *SweepSpec) { s.Modes = nil },
		"unknown mode":     func(s *SweepSpec) { s.Modes = []string{"turbo"} },
		"level too low":    func(s *SweepSpec) { s.LevelsMV = []int{300} },
		"level too high":   func(s *SweepSpec) { s.LevelsMV = []int{900} },
		"bad width":        func(s *SweepSpec) { s.Width = core.MaxWidth + 1 },
	} {
		t.Run(name, func(t *testing.T) {
			s := good
			mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", s)
			}
		})
	}
}

// TestParseModes: round trip through the CLI list format, and rejection
// with the offending name in the error.
func TestParseModes(t *testing.T) {
	modes, err := ParseModes("baseline, iraw,faultybits,extrabypass")
	if err != nil {
		t.Fatal(err)
	}
	want := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW, circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	for i, m := range want {
		if modes[i] != m {
			t.Fatalf("ParseModes = %v, want %v", modes, want)
		}
	}
	if _, err := ParseModes("baseline,warp"); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("ParseModes err = %v, want mention of \"warp\"", err)
	}
}

// TestSweepLabelMatchesStream: the exported label builder and the internal
// sweep grid must agree — fault-injection rules and service cells address
// points by this string.
func TestSweepLabelMatchesStream(t *testing.T) {
	specs := (&Runner{}).sweepSpecs(nil, []circuit.Mode{circuit.ModeIRAW}, []circuit.Millivolts{475})
	if got, want := specs[0].Label, SweepLabel(475, circuit.ModeIRAW); got != want {
		t.Fatalf("sweepSpecs label %q != SweepLabel %q", got, want)
	}
}

// TestTracesPerPointMatchesSuite: a daemon client sizes each point's cells
// without generating the suite, so the count must match what the suite
// generates.
func TestTracesPerPointMatchesSuite(t *testing.T) {
	for _, seeds := range []int{1, 2} {
		spec := SweepSpec{InstsPerTrace: 500, SeedsPerProfile: seeds}
		if got, want := spec.TracesPerPoint(), len(spec.Traces()); got != want {
			t.Fatalf("seeds %d: TracesPerPoint %d, suite holds %d traces", seeds, got, want)
		}
	}
}

// TestCellKeyMatchesJournal: RunCell journals under exactly the key
// CellKey predicts, so a scheduler that precomputes keys finds the
// worker's results.
func TestCellKeyMatchesJournal(t *testing.T) {
	spec := SweepSpec{InstsPerTrace: 2000, SeedsPerProfile: 1, Modes: []string{"iraw"}, LevelsMV: []int{500}}
	tr := spec.Traces()[0]
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)

	dir := t.TempDir()
	r := spec.NewRunner()
	r.JournalDir = dir
	key, err := r.CellKey(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, replayed, err := r.RunCell(t.Context(), nil, SweepLabel(500, circuit.ModeIRAW), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("first run reported a journal replay")
	}
	if res == nil || res.Run.Instructions == 0 {
		t.Fatalf("RunCell result = %+v", res)
	}

	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := jnl.Get(key)
	if !ok {
		t.Fatalf("journal has no entry under CellKey %s", key)
	}
	if ent.Result.Run != res.Run {
		t.Fatalf("journaled result differs: %+v vs %+v", ent.Result, res)
	}

	// Second run replays rather than re-simulating, bit-identical.
	r2 := spec.NewRunner()
	r2.JournalDir = dir
	res2, replayed2, err := r2.RunCell(t.Context(), nil, "replay", cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed2 {
		t.Fatal("second run did not replay from the journal")
	}
	if res2.Run != res.Run || res2.Time != res.Time {
		t.Fatalf("replayed result differs: %+v vs %+v", res2, res)
	}
}
