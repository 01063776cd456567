package ckpt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	return workload.LongTrace(40000, 7)
}

func warmSnapshot(t testing.TB, cfg core.Config, tr *trace.Trace, n int) *core.WarmState {
	t.Helper()
	c := core.MustNew(cfg)
	if err := c.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	ws, err := c.CaptureWarm()
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestWarmStateVccIndependence: the access-order contract promises warm
// state is a pure function of the instruction sequence — so snapshots
// captured at different Vcc levels, and under modes that do not install
// fault maps, must be byte-identical. This is the invariant that lets one
// snapshot serve every operating point of a sweep.
func TestWarmStateVccIndependence(t *testing.T) {
	tr := testTrace(t)
	const n = 30000
	ref := ckpt.EncodeSnapshot(warmSnapshot(t, core.DefaultConfig(500, circuit.ModeIRAW), tr, n))
	for _, cfg := range []core.Config{
		core.DefaultConfig(700, circuit.ModeIRAW),
		core.DefaultConfig(400, circuit.ModeIRAW),
		core.DefaultConfig(500, circuit.ModeBaseline),
		core.DefaultConfig(600, circuit.ModeExtraBypass),
	} {
		got := ckpt.EncodeSnapshot(warmSnapshot(t, cfg, tr, n))
		if !bytes.Equal(got, ref) {
			t.Errorf("warm snapshot at %v %v differs from 500mV iraw reference", cfg.Vcc, cfg.Mode)
		}
	}

	// Mode-irrelevant knobs must not leak into the snapshot either.
	knobbed := core.DefaultConfig(450, circuit.ModeIRAW)
	knobbed.ForcedN = 3
	if got := ckpt.EncodeSnapshot(warmSnapshot(t, knobbed, tr, n)); !bytes.Equal(got, ref) {
		t.Error("timing-only knob ForcedN changed the warm snapshot")
	}

	// Fault maps do shape warm evolution (disabled lines change victim
	// selection): same seed and sigma must agree across Vcc, and the key
	// must separate them from the no-map configurations.
	fb1 := ckpt.EncodeSnapshot(warmSnapshot(t, core.DefaultConfig(500, circuit.ModeFaultyBits), tr, n))
	fb2 := ckpt.EncodeSnapshot(warmSnapshot(t, core.DefaultConfig(425, circuit.ModeFaultyBits), tr, n))
	if !bytes.Equal(fb1, fb2) {
		t.Error("faulty-bits snapshots with identical fault maps differ across Vcc")
	}

	if ckpt.WarmConfigKey(core.DefaultConfig(500, circuit.ModeIRAW)) !=
		ckpt.WarmConfigKey(core.DefaultConfig(700, circuit.ModeBaseline)) {
		t.Error("WarmConfigKey split vcc/mode-independent configurations")
	}
	if ckpt.WarmConfigKey(core.DefaultConfig(500, circuit.ModeIRAW)) ==
		ckpt.WarmConfigKey(core.DefaultConfig(500, circuit.ModeFaultyBits)) {
		t.Error("WarmConfigKey merged fault-mapped and map-free configurations")
	}
	seeded := core.DefaultConfig(500, circuit.ModeFaultyBits)
	seeded.Seed = 99
	if ckpt.WarmConfigKey(core.DefaultConfig(500, circuit.ModeFaultyBits)) == ckpt.WarmConfigKey(seeded) {
		t.Error("WarmConfigKey ignored the fault-map seed")
	}
}

// TestWarmSegmentationInvariance: replaying a prefix in arbitrary segments
// leaves the same canonical snapshot as one continuous replay — the
// property that makes restore-plus-residual-tail interchangeable with live
// warm-up.
func TestWarmSegmentationInvariance(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	const n = 30000
	ref := ckpt.EncodeSnapshot(warmSnapshot(t, cfg, tr, n))

	for _, cuts := range [][]int{
		{10000, 20000},
		{1, 2, 3, 29999},
		{4096, 8192, 12288, 16384},
		{29999},
	} {
		c := core.MustNew(cfg)
		pos := 0
		for _, cut := range append(cuts, n) {
			if err := c.WarmReplayRange(tr, pos, cut); err != nil {
				t.Fatal(err)
			}
			pos = cut
		}
		ws, err := c.CaptureWarm()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckpt.EncodeSnapshot(ws), ref) {
			t.Errorf("segmented replay %v differs from continuous replay", cuts)
		}
	}
}

// TestWarmRestoreRoundTrip: restore into a fresh core reproduces the
// snapshot bit-for-bit (capture(restore(s)) == s), and a measured run from
// the restored core matches one from a live-replayed core exactly.
func TestWarmRestoreRoundTrip(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	const n = 30000
	ws := warmSnapshot(t, cfg, tr, n)
	enc := ckpt.EncodeSnapshot(ws)

	restored := core.MustNew(cfg)
	if err := restored.RestoreWarm(ws); err != nil {
		t.Fatal(err)
	}
	ws2, err := restored.CaptureWarm()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.EncodeSnapshot(ws2), enc) {
		t.Fatal("capture(restore(s)) != s")
	}

	live := core.MustNew(cfg)
	if err := live.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	resLive, err := live.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	resRestored, err := restored.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resLive, resRestored) {
		t.Fatal("measured run from restored core differs from live-replayed core")
	}
}

// TestWarmRestoreRejectsFaultMapMismatch: a snapshot built under one fault
// map must not restore into a core with a different one — the disabled
// lines differ, so the warm evolutions diverge.
func TestWarmRestoreRejectsFaultMapMismatch(t *testing.T) {
	tr := testTrace(t)
	cfg1 := core.DefaultConfig(500, circuit.ModeFaultyBits)
	cfg2 := cfg1
	cfg2.Seed = 99
	ws := warmSnapshot(t, cfg1, tr, 30000)
	if err := core.MustNew(cfg2).RestoreWarm(ws); err == nil {
		t.Fatal("restore under a different fault map succeeded")
	} else if !strings.Contains(err.Error(), "fault-map") {
		t.Fatalf("unexpected mismatch error: %v", err)
	}
}

// TestWarmToEquivalence: warming through the checkpoint store — cold
// (capturing), warm (restoring), and on disk across store instances — is
// result-identical to a live replay, for boundary spacings that divide the
// prefix exactly and ones that leave a residual tail.
func TestWarmToEquivalence(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(475, circuit.ModeIRAW)
	th := "trace-under-test"
	wk := ckpt.WarmConfigKey(cfg)

	for _, tc := range []struct{ n, interval int }{
		{30000, 10000}, // boundary-aligned: steady state is restore-only
		{30000, 7000},  // residual tail after the last boundary
		{30000, 40000}, // interval beyond the prefix: pure live replay
		{9999, 2500},
	} {
		live := core.MustNew(cfg)
		if err := live.WarmReplay(tr, tc.n); err != nil {
			t.Fatal(err)
		}
		want, err := live.RunWarmed(tr, tc.n)
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		for round := 0; round < 3; round++ {
			st, err := ckpt.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if round == 2 {
				// Fresh store handle on the same directory: the disk format
				// round-trips, not just the in-memory map.
				if st2, err := ckpt.Open(dir); err == nil {
					st = st2
				}
			}
			c := core.MustNew(cfg)
			if err := st.WarmTo(c, th, wk, tc.interval, tr, tc.n); err != nil {
				t.Fatal(err)
			}
			got, err := c.RunWarmed(tr, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d interval=%d round %d: checkpointed warm-up changed the Result",
					tc.n, tc.interval, round)
			}
		}
	}
}

// TestWarmToNilStore: a nil store degrades to exactly the live replay.
func TestWarmToNilStore(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	const n = 20000

	live := core.MustNew(cfg)
	if err := live.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	want, err := live.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}

	var st *ckpt.Store
	c := core.MustNew(cfg)
	if err := st.WarmTo(c, "x", "y", 5000, tr, n); err != nil {
		t.Fatal(err)
	}
	got, err := c.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil-store WarmTo differs from live replay")
	}
}

// TestCorruptCheckpointsDetected: truncated and scrambled snapshot files
// are detected misses — WarmTo falls back to live replay with identical
// results and rebuilds the damaged snapshot.
func TestCorruptCheckpointsDetected(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	th, wk := "trace-under-test", ckpt.WarmConfigKey(cfg)
	const n, interval = 20000, 10000

	dir := t.TempDir()
	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmed := core.MustNew(cfg)
	if err := st.WarmTo(warmed, th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	want, err := warmed.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}

	damage := []func() error{
		func() error { // truncate the deepest snapshot mid-file
			path := filepath.Join(dir, ckpt.SnapshotKey(th, wk, n)+".ckpt")
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		func() error { // flip a payload byte in every snapshot
			files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
			if err != nil {
				return err
			}
			for _, path := range files {
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				data[len(data)-1] ^= 0xFF
				if err := os.WriteFile(path, data, 0o644); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for i, corrupt := range damage {
		if err := corrupt(); err != nil {
			t.Fatal(err)
		}
		// A fresh store sees only the damaged files.
		st, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := core.MustNew(cfg)
		if err := st.WarmTo(c, th, wk, interval, tr, n); err != nil {
			t.Fatal(err)
		}
		got, err := c.RunWarmed(tr, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("damage %d: corrupt checkpoint changed the Result", i)
		}
		if s := st.Stats(); s.Corrupt == 0 {
			t.Errorf("damage %d: corruption not counted (stats %+v)", i, s)
		}
		// The rebuild must have replaced the damaged snapshot: a second
		// fresh store restores cleanly.
		st2, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st2.Get(ckpt.SnapshotKey(th, wk, n)); !ok {
			t.Errorf("damage %d: snapshot not rebuilt after corruption", i)
		}
	}
}

// TestOldFormatHeals: a directory written by the manifest-plus-blobs
// layout (magic "lowvccckpt1": one manifest per snapshot key naming six
// content-addressed blob-* component files) is read as corrupt, rebuilt in
// the current format by WarmTo with unchanged results, and its stray blob
// files are neither deleted nor counted against a budget.
func TestOldFormatHeals(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	th, wk := "trace-under-test", ckpt.WarmConfigKey(cfg)
	const n = 20000
	key := ckpt.SnapshotKey(th, wk, n)
	dir := t.TempDir()

	// The old layout: each section of the snapshot encoding was a blob.
	oldSeal := func(payload []byte) ([]byte, string) {
		sum := fmt.Sprintf("%x", sha256.Sum256(payload))
		return append([]byte(fmt.Sprintf("lowvccckpt1 %s %d\n", sum, len(payload))), payload...), sum
	}
	enc := ckpt.EncodeSnapshot(warmSnapshot(t, cfg, tr, n))
	var manifest strings.Builder
	for _, name := range []string{"il0", "dl0", "ul1", "itlb", "dtlb", "bp"} {
		size := binary.LittleEndian.Uint64(enc)
		blob, sum := oldSeal(enc[8 : 8+size])
		enc = enc[8+size:]
		fmt.Fprintf(&manifest, "%s %s\n", name, sum)
		if err := os.WriteFile(filepath.Join(dir, "blob-"+sum), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := oldSeal([]byte(manifest.String()))
	if err := os.WriteFile(filepath.Join(dir, key+".ckpt"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("old-format snapshot read as data")
	}
	if s := st.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Fatalf("old-format read: stats %+v, want 1 corrupt miss", s)
	}

	live := core.MustNew(cfg)
	if err := live.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	want, err := live.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	c := core.MustNew(cfg)
	if err := st.WarmTo(c, th, wk, n, tr, n); err != nil {
		t.Fatal(err)
	}
	got, err := c.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm-up over an old-format directory changed the Result")
	}

	st2, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(key); !ok {
		t.Fatal("snapshot not rebuilt in the current format")
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "blob-*"))
	if err != nil || len(blobs) != 6 {
		t.Fatalf("stray blobs = %d (%v), want all 6 left in place", len(blobs), err)
	}
	info, err := os.Stat(filepath.Join(dir, key+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	st2.SetBudget(1 << 40)
	if u := st2.DiskUsage(); u != info.Size() {
		t.Errorf("DiskUsage = %d, want the one snapshot file's %d bytes", u, info.Size())
	}
}
