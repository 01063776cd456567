package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

var allModes = []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW, circuit.ModeFaultyBits, circuit.ModeExtraBypass}

// canonKnobs are the knob settings canonVariants crosses with every level
// and mode: none, each knob a mode may read on its own, and the two IRAW
// timing knobs together.
var canonKnobs = []func(*core.Config){
	func(*core.Config) {},
	func(c *core.Config) { c.ForcedN = 2 },
	func(c *core.Config) { c.DisableAvoidance = true },
	func(c *core.Config) { c.CombineFaultyBits = true },
	func(c *core.Config) { c.ForcedN, c.DisableAvoidance = 2, true },
}

// canonVariants enumerates every level x mode x canonKnobs setting at one
// width, under the default and a perturbed calibration.
func canonVariants(width int, perturbed *circuit.Params) []core.Config {
	var cfgs []core.Config
	for _, v := range circuit.Levels() {
		for _, mode := range allModes {
			for _, knob := range canonKnobs {
				for _, params := range []*circuit.Params{nil, perturbed} {
					cfg := core.DefaultConfigWidth(v, mode, width)
					knob(&cfg)
					cfg.Circuit = params
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}

// TestCanonicalConfigEquivalence pins the model property the stream's
// canonical cell identity rests on: configs that canonicalize alike
// simulate to Results that are reflect.DeepEqual apart from Plan.Mode —
// unsharded and as an 8-window sharded cell, at every width — and the
// mapping only ever folds a config into its baseline form.
func TestCanonicalConfigEquivalence(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 800, 3)
	perturbed := circuit.DefaultParams()
	perturbed.ActivationGain = 1.35 // IRAW stays off at more levels
	perturbed.WriteR600 = 0.95      // a write fits one logic cycle lower down

	for width := 1; width <= core.MaxWidth; width++ {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			t.Parallel()
			groups := make(map[core.Config][]core.Config)
			var order []core.Config
			for _, cfg := range canonVariants(width, &perturbed) {
				canon := canonicalConfig(cfg)
				if c := canonicalConfig(canon); c != canon {
					t.Errorf("%v %v: canonicalization is not idempotent", cfg.Vcc, cfg.Mode)
				}
				if canon != cfg {
					if plan, _ := core.AppliedPlan(cfg); core.InstallsFaultMaps(cfg) || plan.IRAWActive {
						t.Errorf("%v %v (%+v): remapped despite fault maps or an active IRAW plan", cfg.Vcc, cfg.Mode, cfg)
					}
					if cfg.Mode == circuit.ModeBaseline && cfg.ForcedN == 0 && !cfg.DisableAvoidance {
						t.Errorf("%v: a baseline config is not its own canonical form", cfg.Vcc)
					}
					if canon.Mode != circuit.ModeBaseline {
						t.Errorf("%v %v: canonical form has mode %v", cfg.Vcc, cfg.Mode, canon.Mode)
					}
				}
				if _, ok := groups[canon]; !ok {
					order = append(order, canon)
				}
				groups[canon] = append(groups[canon], cfg)
			}

			for _, canon := range order {
				members := groups[canon]
				if len(members) == 1 {
					continue
				}
				for _, win := range []int{-1, len(tr.Insts) / autoWindowCount} {
					run := func(cfg core.Config) *core.Result {
						res, _, err := (&Runner{Workers: 1, WindowInsts: win}).RunPoint(context.Background(), cfg, []*trace.Trace{tr})
						if err != nil {
							t.Fatal(err)
						}
						return res[0]
					}
					w, warm := (&Runner{WindowInsts: win}).planFor(len(tr.Insts))
					if n := len(trace.Shard(tr, w, warm)); win > 0 && n != autoWindowCount {
						t.Fatalf("sharded cell has %d windows, want %d", n, autoWindowCount)
					}
					want := run(canon)
					for _, cfg := range members {
						if cfg == canon {
							continue
						}
						got := run(cfg)
						if plan, _ := core.AppliedPlan(cfg); got.Plan != plan {
							t.Errorf("%v %v: Result.Plan differs from AppliedPlan", cfg.Vcc, cfg.Mode)
						}
						got.Plan.Mode = want.Plan.Mode
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%v %v (%+v) win=%d: Result differs from its canonical config's", cfg.Vcc, cfg.Mode, cfg, win)
						}
					}
				}
			}
		})
	}
}

// TestCanonicalConfigAtCalibration: at the model's calibration exactly
// IRAW at 600–700 mV (below its activation gain) and Extra-Bypass at
// 625–700 mV (a write fits one cycle) fold into the baseline, which is
// what makes the sweeps' repeated cells equivalent at all.
func TestCanonicalConfigAtCalibration(t *testing.T) {
	folds := map[circuit.Mode][]circuit.Millivolts{}
	for _, mode := range allModes {
		for _, v := range circuit.Levels() {
			cfg := core.DefaultConfig(v, mode)
			if canon := canonicalConfig(cfg); canon != cfg {
				if canon != core.DefaultConfig(v, circuit.ModeBaseline) {
					t.Errorf("%v %v folds into a non-default baseline config", v, mode)
				}
				folds[mode] = append(folds[mode], v)
			}
		}
	}
	want := map[circuit.Mode][]circuit.Millivolts{
		circuit.ModeIRAW:        {700, 675, 650, 625, 600},
		circuit.ModeExtraBypass: {700, 675, 650, 625},
	}
	if !reflect.DeepEqual(folds, want) {
		t.Errorf("folded cells %v, want %v", folds, want)
	}
}

// TestCanonicalConfigUnbuildable: a config the engine rejects keeps its
// own identity, so its cell fails in simulation as before.
func TestCanonicalConfigUnbuildable(t *testing.T) {
	cfg := core.DefaultConfig(650, circuit.ModeIRAW)
	cfg.ForcedN = 99 // out of the model's range: core.New rejects it
	if canonicalConfig(cfg) != cfg {
		t.Error("an unbuildable config was remapped")
	}
}

// TestKeyerKeys: a Keyer derives CellKey's exact bytes and, as the
// canonical key, CellKey of the canonical config, for every level and mode
// and under a windowed plan — hashing each trace and each config once.
func TestKeyerKeys(t *testing.T) {
	traces := memoTraces()
	for _, r := range []*Runner{{}, {WindowInsts: 500, Width: 3}} {
		k := r.NewKeyer()
		for _, mode := range allModes {
			for _, v := range circuit.Levels() {
				cfg := r.pointConfig(v, mode)
				for _, tr := range traces {
					keys, err := k.Keys(cfg, tr)
					if err != nil {
						t.Fatal(err)
					}
					key, err := r.CellKey(cfg, tr)
					if err != nil {
						t.Fatal(err)
					}
					canon, err := r.CellKey(canonicalConfig(cfg), tr)
					if err != nil {
						t.Fatal(err)
					}
					if keys.Key != key || keys.Canon != canon {
						t.Fatalf("%v %v %s: Keys = %+v, want {%s %s}", v, mode, tr.Name, keys, key, canon)
					}
					if (keys.Canon == keys.Key) != (canonicalConfig(cfg) == cfg) {
						t.Fatalf("%v %v: canonical key equality disagrees with canonicalConfig", v, mode)
					}
				}
			}
		}
		if len(k.traces) != len(traces) || len(k.points) != len(allModes)*len(circuit.Levels()) {
			t.Fatalf("Keyer hashed %d traces and %d configs, want %d and %d",
				len(k.traces), len(k.points), len(traces), len(allModes)*len(circuit.Levels()))
		}
	}
}

// canonLevels is a grid where IRAW at 600 mV is baseline-equivalent and at
// 575 mV is not: of its 8 cells, the 2 IRAW@600 cells follow their
// baseline leaders.
var canonLevels = []circuit.Millivolts{600, 575}

// TestStreamFollowers: on a fresh Runner, equivalent cells simulate once —
// the followers emit as replayed, with Results bit-identical to their own
// fresh simulation — for any worker count.
func TestStreamFollowers(t *testing.T) {
	traces := memoTraces()
	var ref map[circuit.Mode]map[circuit.Millivolts]*Point
	for _, workers := range []int{1, 4} {
		r := &Runner{Workers: workers}
		counts := countReplays(r)
		got, err := r.Sweep(context.Background(), traces, streamModes, canonLevels)
		if err != nil {
			t.Fatal(err)
		}
		if rep, sim := counts(); rep != 2 || sim != 6 {
			t.Fatalf("workers=%d: %d replayed, %d simulated; want 2, 6", workers, rep, sim)
		}
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d output differs from workers=1", workers)
		}
	}
	cfg := core.DefaultConfig(600, circuit.ModeIRAW)
	_, want, err := (&Runner{Workers: 2}).RunPoint(context.Background(), cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref[circuit.ModeIRAW][600].Agg; !reflect.DeepEqual(got, want) {
		t.Fatal("follower results differ from their own fresh simulation")
	}
	if want.Plan.Mode != circuit.ModeIRAW {
		t.Fatal("follower result carries its leader's Plan.Mode")
	}
}

// TestStreamFollowersJournal: followers are journaled under their own
// requested keys, so a fresh Runner on the journal replays every cell.
func TestStreamFollowersJournal(t *testing.T) {
	traces := memoTraces()
	dir := t.TempDir()
	r := &Runner{Workers: 2, JournalDir: dir}
	want, err := r.Sweep(context.Background(), traces, streamModes, canonLevels)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := jnl.Len(); err != nil || n != 8 {
		t.Fatalf("journal holds %d entries (err %v), want 8", n, err)
	}
	for _, tr := range traces {
		key, err := r.CellKey(core.DefaultConfig(600, circuit.ModeIRAW), tr)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := jnl.Get(key); !ok || e.Result.Plan.Mode != circuit.ModeIRAW {
			t.Fatalf("follower %s missing from the journal under its requested key", tr.Name)
		}
	}

	fresh := &Runner{Workers: 2, JournalDir: dir}
	counts := countReplays(fresh)
	got, err := fresh.Sweep(context.Background(), traces, streamModes, canonLevels)
	if err != nil {
		t.Fatal(err)
	}
	if rep, sim := counts(); rep != 8 || sim != 0 {
		t.Fatalf("fresh runner: %d replayed, %d simulated; want 8, 0", rep, sim)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("journal replay differs from the simulating run")
	}
}

// TestStreamCanonicalHit: a cell whose equivalent an earlier stream on the
// Runner simulated replays under its canonical key, with its own Plan,
// and is written through under its requested key.
func TestStreamCanonicalHit(t *testing.T) {
	traces := memoTraces()
	base := core.DefaultConfig(600, circuit.ModeBaseline)
	iraw := core.DefaultConfig(600, circuit.ModeIRAW)
	want, _, err := (&Runner{Workers: 2}).RunPoint(context.Background(), iraw, traces)
	if err != nil {
		t.Fatal(err)
	}

	r := &Runner{Workers: 2}
	counts := countReplays(r)
	if _, _, err := r.RunPoint(context.Background(), base, traces); err != nil {
		t.Fatal(err)
	}
	counts()
	r.JournalDir = t.TempDir()
	got, _, err := r.RunPoint(context.Background(), iraw, traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep, sim := counts(); rep != 2 || sim != 0 {
		t.Fatalf("%d replayed, %d simulated; want 2, 0", rep, sim)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("canonical hit differs from a fresh simulation")
	}
	key, err := r.CellKey(iraw, traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.memo.get(key); !ok {
		t.Fatal("canonical hit not recorded in the memo under its requested key")
	}
	jnl, err := journal.Open(r.JournalDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := jnl.Get(key); !ok {
		t.Fatal("canonical hit not written through to the journal")
	}
}

// TestStreamFollowerOfFailedLeader: under AllowPartial a follower of a
// failed leader emits its own *CellError carrying its own identity; in
// strict mode the terminal error is still the lowest-index failure, the
// leader's.
func TestStreamFollowerOfFailedLeader(t *testing.T) {
	traces := memoTraces()
	leader, follower := SweepLabel(600, circuit.ModeBaseline), SweepLabel(600, circuit.ModeIRAW)
	specs := (&Runner{}).sweepSpecs(traces, streamModes, canonLevels)
	followerPoint := slices.IndexFunc(specs, func(s PointSpec) bool { return s.Label == follower })
	faults := func() *FaultPlan {
		return NewFaultPlan(FaultRule{Label: leader, TraceName: traces[0].Name, Window: -1, Kind: FaultError})
	}

	r := &Runner{Workers: 2, AllowPartial: true, Faults: faults()}
	var fails []*CellError
	for u := range r.Stream(context.Background(), specs) {
		if u.Point < 0 {
			t.Fatalf("terminal update in partial mode: %v", u.Err)
		}
		if u.Err == nil {
			continue
		}
		var ce *CellError
		if !errors.As(u.Err, &ce) || ce.Label != u.Label || ce.Point != u.Point || ce.Trace != u.Trace {
			t.Fatalf("update %s/%d carries error %v with a foreign identity", u.Label, u.Trace, u.Err)
		}
		fails = append(fails, ce)
	}
	if len(fails) != 2 {
		t.Fatalf("%d failed cells, want the leader and its follower", len(fails))
	}
	slices.SortFunc(fails, func(a, b *CellError) int { return a.Point - b.Point })
	if f := fails[1]; f.Label != follower || f.Point != followerPoint || f.Trace != 0 || f.TraceName != traces[0].Name {
		t.Fatalf("follower failure %+v, want %s point %d trace 0", f, follower, followerPoint)
	}

	r = &Runner{Workers: 2, Faults: faults()}
	_, err := r.Sweep(context.Background(), traces, streamModes, canonLevels)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Label != leader || ce.Trace != 0 {
		t.Fatalf("strict sweep err = %v, want the leader's *CellError", err)
	}
}

// TestStreamFollowersNotInjected: like replays, followers run no window
// and write no journal entry of their own, so faults aimed at them never
// fire.
func TestStreamFollowersNotInjected(t *testing.T) {
	traces := memoTraces()
	follower := SweepLabel(600, circuit.ModeIRAW)
	faults := NewFaultPlan(
		FaultRule{Label: follower, Window: -1, Kind: FaultPanic},
		FaultRule{Label: follower, Window: -1, Kind: FaultTruncateJournal},
	)
	dir := t.TempDir()
	r := &Runner{Workers: 2, JournalDir: dir, Faults: faults}
	if _, err := r.Sweep(context.Background(), traces, streamModes, canonLevels); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(faults.fired, []int{0, 0}) {
		t.Fatalf("faults aimed at followers fired %v times", faults.fired)
	}
	fresh := &Runner{Workers: 2, JournalDir: dir}
	counts := countReplays(fresh)
	if _, err := fresh.Sweep(context.Background(), traces, streamModes, canonLevels); err != nil {
		t.Fatal(err)
	}
	if rep, _ := counts(); rep != 8 {
		t.Fatalf("fresh runner replayed %d cells, want 8 (follower entries intact)", rep)
	}
}
