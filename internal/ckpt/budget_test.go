package ckpt_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
)

// snapshotFiles counts the snapshot files in a store directory.
func snapshotFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestBudgetEvictsSnapshotsLRU: squeezing the byte budget evicts whole
// snapshot files oldest-use first, and a sweep warmed through the
// shrunken store remains result-identical to a live replay (eviction costs
// work, never results).
func TestBudgetEvictsSnapshotsLRU(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	th := "budget-trace"
	wk := ckpt.WarmConfigKey(cfg)
	dir := t.TempDir()

	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetBudget(1 << 40) // activate tracking before any flush
	c := core.MustNew(cfg)
	const interval, n = 5000, 20000
	if err := st.WarmTo(c, th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	files := snapshotFiles(t, dir)
	if files != n/interval {
		t.Fatalf("dir holds %d snapshot files, want %d", files, n/interval)
	}
	full := st.DiskUsage()
	if full <= 0 {
		t.Fatalf("DiskUsage = %d after %d snapshots", full, files)
	}

	// Squeeze: force at least one eviction. The shallowest boundary is the
	// least recently flushed, so it goes first.
	st.SetBudget(full - 1)
	if s := st.Stats(); s.Evictions == 0 {
		t.Fatal("no evictions after squeezing below usage")
	}
	if st.DiskUsage() > full-1 {
		t.Errorf("DiskUsage %d over budget %d", st.DiskUsage(), full-1)
	}
	// A fresh store over the directory sees the survivors only; the
	// deepest (most recently used) boundary must be among them.
	st2, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(ckpt.SnapshotKey(th, wk, n)); !ok {
		t.Error("most recently used snapshot was evicted")
	}
	if _, ok := st2.Get(ckpt.SnapshotKey(th, wk, interval)); ok {
		t.Error("LRU snapshot survived the squeeze")
	}

	// Warming through the evicted store must still equal a live replay.
	warmed := core.MustNew(cfg)
	if err := st2.WarmTo(warmed, th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	got, err := warmed.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	live := core.MustNew(cfg)
	if err := live.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	want, err := live.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("warmed run through evicted store differs from live replay")
	}
}

// TestBudgetSeedsFromDisk: SetBudget on a store opened over an existing
// directory reconstructs sizes and mtime-ordered recency from the files
// themselves.
func TestBudgetSeedsFromDisk(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	dir := t.TempDir()
	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := core.MustNew(cfg)
	if err := st.WarmTo(c, "t", "w", 5000, tr, 15000); err != nil {
		t.Fatal(err)
	}

	reopened, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reopened.SetBudget(1 << 40)
	if reopened.DiskUsage() <= 0 {
		t.Fatal("reopened store tracked no usage")
	}
	reopened.SetBudget(reopened.DiskUsage() - 1)
	if s := reopened.Stats(); s.Evictions == 0 {
		t.Error("no eviction after seeding from disk")
	}
	if m := snapshotFiles(t, dir); m >= 3 {
		t.Errorf("snapshot files = %d, want < 3 after eviction", m)
	}
}
