package core

import (
	"reflect"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/rng"
	"lowvcc/internal/workload"
)

// TestRandomizedConfigsNeverDeadlockOrCorrupt drives the pipeline through
// randomized (profile, voltage, mode, N) points: every run must terminate
// (no watchdog) and, whenever avoidance is active, consume zero corrupt
// values. This is the repo's crash/deadlock fuzz harness in miniature.
func TestRandomizedConfigsNeverDeadlockOrCorrupt(t *testing.T) {
	src := rng.New(0xF00D)
	profiles := append(workload.Profiles(), workload.MemBound())
	levels := circuit.Levels()
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW,
		circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		p := profiles[src.Intn(len(profiles))]
		v := levels[src.Intn(len(levels))]
		mode := modes[src.Intn(len(modes))]
		n := 1 + src.Intn(3)
		insts := 2000 + src.Intn(4000)

		cfg := DefaultConfig(v, mode)
		if mode == circuit.ModeIRAW {
			switch src.Intn(3) {
			case 0:
				cfg.ForcedN = n
			case 1:
				cfg.CombineFaultyBits = true
			}
		}
		tr := workload.Generate(p, insts, uint64(i)+99)
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("iter %d (%s %v %v): %v", i, p.Name, v, mode, err)
		}
		res, err := c.Run(tr)
		if err != nil {
			t.Fatalf("iter %d (%s %v %v N=%d): %v", i, p.Name, v, mode, cfg.ForcedN, err)
		}
		if res.Run.Instructions != uint64(insts) {
			t.Fatalf("iter %d: retired %d of %d", i, res.Run.Instructions, insts)
		}
		if res.CorruptConsumed != 0 || res.IntegrityErrors != 0 {
			t.Fatalf("iter %d (%s %v %v): corrupt=%d integ=%d",
				i, p.Name, v, mode, res.CorruptConsumed, res.IntegrityErrors)
		}
		// A second run on the same warm core must also stay clean.
		res2, err := c.Run(tr)
		if err != nil {
			t.Fatalf("iter %d warm rerun: %v", i, err)
		}
		if res2.CorruptConsumed != 0 || res2.IntegrityErrors != 0 {
			t.Fatalf("iter %d warm rerun: corrupt=%d integ=%d",
				i, res2.CorruptConsumed, res2.IntegrityErrors)
		}
	}
}

// TestSkipEngineMatchesSteppedEngine fuzzes the event-driven fast paths —
// the timing wheel, the lazy scoreboard and, above all, idle-cycle skipping
// — against strict cycle stepping: the same randomized (profile, voltage,
// mode, N) points run through both engine variants and every Result field
// (cycles, stall histograms, violation counters, cache/BP statistics) must
// be bit-identical, cold and warm.
func TestSkipEngineMatchesSteppedEngine(t *testing.T) {
	src := rng.New(0xBEEFCAFE)
	profiles := append(workload.Profiles(), workload.MemBound())
	levels := circuit.Levels()
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW,
		circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		p := profiles[src.Intn(len(profiles))]
		v := levels[src.Intn(len(levels))]
		mode := modes[src.Intn(len(modes))]
		insts := 1500 + src.Intn(3000)

		cfg := DefaultConfig(v, mode)
		if mode == circuit.ModeIRAW {
			switch src.Intn(4) {
			case 0:
				cfg.ForcedN = 1 + src.Intn(3)
			case 1:
				cfg.CombineFaultyBits = true
			case 2:
				cfg.DisableAvoidance = true
			}
		}
		tr := workload.Generate(p, insts, uint64(i)+1234)

		fast := MustNew(cfg)
		slow := MustNew(cfg)
		slow.noSkip = true
		for pass := 0; pass < 2; pass++ {
			fr, err := fast.Run(tr)
			if err != nil {
				t.Fatalf("iter %d pass %d (%s %v %v): skip engine: %v", i, pass, p.Name, v, mode, err)
			}
			sr, err := slow.Run(tr)
			if err != nil {
				t.Fatalf("iter %d pass %d (%s %v %v): stepped engine: %v", i, pass, p.Name, v, mode, err)
			}
			if !reflect.DeepEqual(fr, sr) {
				t.Fatalf("iter %d pass %d (%s %v %v N=%d): engines diverge\nskip:    %+v\nstepped: %+v",
					i, pass, p.Name, v, mode, cfg.ForcedN, fr, sr)
			}
		}
	}
}

// TestWidthsMatchReferenceEngine fuzzes the width axis: for every width in
// 1..MaxWidth, the event-driven engine must be bit-identical to the
// stepped reference engine (noSkip) on the same randomized (profile,
// voltage, mode, N) points, cold and warm. The recorded goldens pin
// widths 1 through 4; this extends the skip-vs-stepped equivalence to
// random points along the whole axis.
func TestWidthsMatchReferenceEngine(t *testing.T) {
	src := rng.New(0x51DE)
	profiles := append(workload.Profiles(), workload.MemBound())
	levels := circuit.Levels()
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW,
		circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	iters := 24
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		width := 1 + i%MaxWidth
		p := profiles[src.Intn(len(profiles))]
		v := levels[src.Intn(len(levels))]
		mode := modes[src.Intn(len(modes))]
		insts := 1500 + src.Intn(3000)

		cfg := DefaultConfigWidth(v, mode, width)
		if mode == circuit.ModeIRAW && src.Intn(3) == 0 {
			cfg.ForcedN = 1 + src.Intn(3)
		}
		tr := workload.Generate(p, insts, uint64(i)+31337)

		fast := MustNew(cfg)
		stepped := MustNew(cfg)
		stepped.noSkip = true
		for pass := 0; pass < 2; pass++ {
			fr, err := fast.Run(tr)
			if err != nil {
				t.Fatalf("iter %d pass %d (w=%d %s %v %v): fast engine: %v", i, pass, width, p.Name, v, mode, err)
			}
			sr, err := stepped.Run(tr)
			if err != nil {
				t.Fatalf("iter %d pass %d (w=%d %s %v %v): stepped engine: %v", i, pass, width, p.Name, v, mode, err)
			}
			if !reflect.DeepEqual(fr, sr) {
				t.Fatalf("iter %d pass %d (w=%d %s %v %v N=%d): fast vs stepped diverge\nfast:    %+v\nstepped: %+v",
					i, pass, width, p.Name, v, mode, cfg.ForcedN, fr, sr)
			}
		}
	}
}

// TestWiderCoreIssuesMore pins the point of the width axis: on a compute
// trace at nominal voltage, a 4-wide core must finish in strictly fewer
// cycles than the 2-wide core, and the 1-wide core in strictly more — the
// issue stage has to actually move extra instructions per cycle.
func TestWiderCoreIssuesMore(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 20000, 7)
	cycles := map[int]uint64{}
	for _, w := range []int{1, 2, 4} {
		c := MustNew(DefaultConfigWidth(700, circuit.ModeBaseline, w))
		res, err := c.Run(tr)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		cycles[w] = res.Run.Cycles
	}
	if !(cycles[4] < cycles[2] && cycles[2] < cycles[1]) {
		t.Fatalf("cycles not strictly decreasing with width: w1=%d w2=%d w4=%d",
			cycles[1], cycles[2], cycles[4])
	}
}

// TestSkipEquivalenceUnderHoldPressure targets the overlapping-port-hold
// attribution corner: a TLB-hostile, store-heavy workload at high N makes
// DTLB walk-fill holds coincide with DL0 fill windows registered for
// future cycles, which is exactly where a skip bounded only by the
// DTLB-free time would misattribute StallDL0IRAW cycles as StallOtherIRAW.
func TestSkipEquivalenceUnderHoldPressure(t *testing.T) {
	p := workload.MemBound()
	p.Load, p.Store = 0.35, 0.30 // store-heavy: constant DL0 fill traffic
	p.DataWorkingSet = 256 << 20 // thrash both TLBs
	for _, forcedN := range []int{2, 4} {
		for seed := uint64(0); seed < 4; seed++ {
			cfg := DefaultConfig(400, circuit.ModeIRAW)
			cfg.ForcedN = forcedN
			tr := workload.Generate(p, 4000, seed+500)
			fast := MustNew(cfg)
			slow := MustNew(cfg)
			slow.noSkip = true
			fr, err := fast.Run(tr)
			if err != nil {
				t.Fatalf("N=%d seed %d: skip engine: %v", forcedN, seed, err)
			}
			sr, err := slow.Run(tr)
			if err != nil {
				t.Fatalf("N=%d seed %d: stepped engine: %v", forcedN, seed, err)
			}
			if !reflect.DeepEqual(fr, sr) {
				t.Fatalf("N=%d seed %d: engines diverge\nskip stalls:    %v\nstepped stalls: %v",
					forcedN, seed, fr.Run.IssueStalls, sr.Run.IssueStalls)
			}
		}
	}
}
