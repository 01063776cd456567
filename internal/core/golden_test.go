package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden engine results")

// goldenCases spans the paths the engine rewrite must keep bit-identical:
// every mode, multiple Vcc points (active and inactive IRAW), mispredict
// redirects (branchy profiles), fence drains with NOOP injection,
// long-latency load misses (membound), forced-N bubbles, combined
// faulty-bits, the unsafe validation mode, the Extra-Bypass write-port
// FIFO (structural stalls), and the width axis (1, 3 and 4 — recorded from
// the engine that still carried the batched multi-slot issue probe, so the
// single issue path is held to it without a runtime reference twin).
func goldenCases() []struct {
	Label string
	Cfg   Config
	Trace *trace.Trace
} {
	fenceHeavy := workload.Kernel()
	fenceHeavy.Fence = 0.05

	mk := func(label string, cfg Config, p workload.Profile, insts int, seed uint64) struct {
		Label string
		Cfg   Config
		Trace *trace.Trace
	} {
		return struct {
			Label string
			Cfg   Config
			Trace *trace.Trace
		}{label, cfg, workload.Generate(p, insts, seed)}
	}

	forcedN := DefaultConfig(450, circuit.ModeIRAW)
	forcedN.ForcedN = 3
	combined := DefaultConfig(450, circuit.ModeIRAW)
	combined.CombineFaultyBits = true
	unsafeCfg := DefaultConfig(500, circuit.ModeIRAW)
	unsafeCfg.DisableAvoidance = true

	return []struct {
		Label string
		Cfg   Config
		Trace *trace.Trace
	}{
		mk("specint-575-iraw", DefaultConfig(575, circuit.ModeIRAW), workload.SpecInt(), 8000, 1),
		mk("specint-450-iraw", DefaultConfig(450, circuit.ModeIRAW), workload.SpecInt(), 8000, 1),
		mk("specint-700-iraw-inactive", DefaultConfig(700, circuit.ModeIRAW), workload.SpecInt(), 8000, 1),
		mk("specint-500-baseline", DefaultConfig(500, circuit.ModeBaseline), workload.SpecInt(), 8000, 1),
		mk("specint-500-extrabypass", DefaultConfig(500, circuit.ModeExtraBypass), workload.SpecInt(), 8000, 1),
		mk("specint-500-faultybits", DefaultConfig(500, circuit.ModeFaultyBits), workload.SpecInt(), 8000, 1),
		mk("kernel-fences-500-iraw", DefaultConfig(500, circuit.ModeIRAW), fenceHeavy, 8000, 4),
		mk("membound-450-iraw", DefaultConfig(450, circuit.ModeIRAW), workload.MemBound(), 6000, 2),
		mk("office-575-iraw", DefaultConfig(575, circuit.ModeIRAW), workload.Office(), 8000, 7),
		mk("specint-450-forcedN3", forcedN, workload.SpecInt(), 8000, 1),
		mk("specint-450-combined-faulty", combined, workload.SpecInt(), 8000, 1),
		mk("specint-500-unsafe", unsafeCfg, workload.SpecInt(), 8000, 1),
		mk("specint-500-iraw-w1", DefaultConfigWidth(500, circuit.ModeIRAW, 1), workload.SpecInt(), 8000, 1),
		mk("specint-500-iraw-w3", DefaultConfigWidth(500, circuit.ModeIRAW, 3), workload.SpecInt(), 8000, 1),
		mk("specint-500-iraw-w4", DefaultConfigWidth(500, circuit.ModeIRAW, 4), workload.SpecInt(), 8000, 1),
		mk("membound-450-iraw-w1", DefaultConfigWidth(450, circuit.ModeIRAW, 1), workload.MemBound(), 6000, 2),
		mk("membound-450-iraw-w4", DefaultConfigWidth(450, circuit.ModeIRAW, 4), workload.MemBound(), 6000, 2),
		mk("kernel-fences-500-extrabypass-w4", DefaultConfigWidth(500, circuit.ModeExtraBypass, 4), fenceHeavy, 8000, 4),
	}
}

// goldenRecord stores both a cold and a warm run: the warm rerun exercises
// the free-running absolute timeline (c.now, pending wheel events carried
// across Run calls).
type goldenRecord struct {
	Label        string
	Cold, Warm   json.RawMessage
	Cycles       uint64 // cold-run cycles, for readable diffs
	Instructions uint64
}

func goldenPath() string { return filepath.Join("testdata", "golden_engine.json") }

// TestEngineMatchesGolden asserts that the event-driven engine reproduces,
// bit for bit, the Results recorded from the seed cycle-stepped engine for
// representative traces across all four modes. Regenerate with -update ONLY
// when an intentional model change (not an engine change) alters results.
func TestEngineMatchesGolden(t *testing.T) {
	cases := goldenCases()

	records := make([]goldenRecord, 0, len(cases))
	for _, gc := range cases {
		c, err := New(gc.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.Label, err)
		}
		cold, err := c.Run(gc.Trace)
		if err != nil {
			t.Fatalf("%s: cold run: %v", gc.Label, err)
		}
		warm, err := c.Run(gc.Trace)
		if err != nil {
			t.Fatalf("%s: warm run: %v", gc.Label, err)
		}
		cb, err := json.Marshal(cold)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(warm)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, goldenRecord{
			Label: gc.Label, Cold: cb, Warm: wb,
			Cycles: cold.Run.Cycles, Instructions: cold.Run.Instructions,
		})
	}

	if *updateGolden {
		out, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath(), len(records))
		return
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(records) {
		t.Fatalf("golden has %d cases, test produced %d (regenerate with -update)", len(want), len(records))
	}
	for i, w := range want {
		got := records[i]
		if w.Label != got.Label {
			t.Fatalf("case %d: label %q != golden %q", i, got.Label, w.Label)
		}
		for _, pass := range []struct {
			name      string
			got, want json.RawMessage
		}{{"cold", got.Cold, w.Cold}, {"warm", got.Warm, w.Warm}} {
			if !jsonEqual(pass.got, pass.want) {
				t.Errorf("%s (%s run): engine diverges from recorded seed engine\n got: %s\nwant: %s",
					w.Label, pass.name, diffHint(pass.got, pass.want), "(see testdata/golden_engine.json)")
			}
		}
	}
}

// jsonEqual compares two JSON documents structurally (whitespace- and
// key-order-insensitive, exact values).
func jsonEqual(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		return false
	}
	if err := json.Compact(&cb, b); err != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// diffHint unmarshals both documents and reports the first top-level field
// that differs, keeping failure output readable.
func diffHint(got, want json.RawMessage) string {
	var g, w map[string]json.RawMessage
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return string(got)
	}
	for k, gv := range g {
		var cg, cw bytes.Buffer
		json.Compact(&cg, gv)
		json.Compact(&cw, w[k])
		if !bytes.Equal(cg.Bytes(), cw.Bytes()) {
			return "field " + k + ": got " + cg.String() + ", want " + cw.String()
		}
	}
	return "documents differ in missing fields"
}
