package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// The memo tests run one Runner through two overlapping streams: a
// baseline/IRAW sweep at memoLevels (8 cells), then RunPoint at the
// default 500 mV IRAW point, whose 2 cells the sweep already simulated.
// Both levels keep IRAW active, so the sweep's 8 cells are distinct to
// the engine (canonicalConfig).
var memoLevels = []circuit.Millivolts{575, 500}

func memoTraces() []*trace.Trace {
	return []*trace.Trace{
		workload.Generate(workload.SpecInt(), 2000, 1),
		workload.Generate(workload.MemBound(), 2000, 2),
	}
}

func memoPointCfg() core.Config { return core.DefaultConfig(500, circuit.ModeIRAW) }

// countReplays installs a Progress hook on r that counts replayed and
// simulated cells, and returns a reader that reports and resets both.
func countReplays(r *Runner) func() (replayed, simulated int32) {
	var rep, sim atomic.Int32
	r.Progress = func(u PointUpdate) {
		switch {
		case u.Point < 0 || u.Err != nil:
		case u.Replayed:
			rep.Add(1)
		default:
			sim.Add(1)
		}
	}
	return func() (int32, int32) { return rep.Swap(0), sim.Swap(0) }
}

// freshPoint is the reference: the default point on a Runner with an
// empty memo.
func freshPoint(t *testing.T, traces []*trace.Trace) []*core.Result {
	t.Helper()
	want, _, err := (&Runner{Workers: 2}).RunPoint(context.Background(), memoPointCfg(), traces)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestMemoReplaysAcrossStreams: every cell an earlier stream on the same
// Runner simulated replays, with results bit-identical to a fresh
// Runner's, and a consumer mutating its result cannot reach another's.
func TestMemoReplaysAcrossStreams(t *testing.T) {
	traces := memoTraces()
	want := freshPoint(t, traces)

	r := &Runner{Workers: 2}
	counts := countReplays(r)
	if _, err := r.Sweep(context.Background(), traces, streamModes, memoLevels); err != nil {
		t.Fatal(err)
	}
	if rep, sim := counts(); rep != 0 || sim != 8 {
		t.Fatalf("sweep: %d replayed, %d simulated; want 0, 8", rep, sim)
	}
	got, _, err := r.RunPoint(context.Background(), memoPointCfg(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep, sim := counts(); rep != 2 || sim != 0 {
		t.Fatalf("point: %d replayed, %d simulated; want 2, 0", rep, sim)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replayed results differ from a fresh runner's")
	}

	got[0].Run.Cycles++ // a consumer scribbling on its copy
	again, _, err := r.RunPoint(context.Background(), memoPointCfg(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("a mutated result leaked into a later replay")
	}
}

// TestMemoResultHasNoReferences guards the memo's copy-in/copy-out: it
// stores core.Result by value, which only isolates consumers while the
// struct holds no pointers, slices, maps or other references.
func TestMemoResultHasNoReferences(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s: memo copies would alias it", path, ty.Kind())
		}
	}
	walk("Result", reflect.TypeOf(core.Result{}))
}

// TestMemoPastCap: a full memo keeps serving correct results, simulates
// what it cannot hold, and never grows past memoCap.
func TestMemoPastCap(t *testing.T) {
	traces := memoTraces()
	want := freshPoint(t, traces)

	r := &Runner{Workers: 2}
	for i := 0; i < memoCap; i++ {
		r.memo.put(fmt.Sprintf("filler-%d", i), 1, &core.Result{})
	}
	counts := countReplays(r)
	if _, err := r.Sweep(context.Background(), traces, streamModes, memoLevels); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.RunPoint(context.Background(), memoPointCfg(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep, sim := counts(); rep != 0 || sim != 10 {
		t.Fatalf("%d replayed, %d simulated; want 0, 10 past the cap", rep, sim)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results past the cap differ from a fresh runner's")
	}
	if n := len(r.memo.m); n != memoCap {
		t.Fatalf("memo holds %d entries, want the cap %d", n, memoCap)
	}
}

// TestMemoWritesThroughJournal: a memo hit the journal lacks is put, so
// the journal stays complete for resumes and workers.
func TestMemoWritesThroughJournal(t *testing.T) {
	traces := memoTraces()
	want := freshPoint(t, traces)

	r := &Runner{Workers: 2, JournalDir: t.TempDir()}
	counts := countReplays(r)
	if _, err := r.Sweep(context.Background(), traces, streamModes, memoLevels); err != nil {
		t.Fatal(err)
	}
	counts()
	// A fresh journal directory: the point's cells can only come from the
	// memo.
	dir := t.TempDir()
	r.JournalDir = dir
	got, _, err := r.RunPoint(context.Background(), memoPointCfg(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep, sim := counts(); rep != 2 || sim != 0 {
		t.Fatalf("point: %d replayed, %d simulated; want 2, 0", rep, sim)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("memo results differ from a fresh runner's")
	}
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := jnl.Len(); err != nil || n != 2 {
		t.Fatalf("journal holds %d entries (err %v), want the 2 memo hits", n, err)
	}

	// And a fresh runner on that journal replays them bit-identically.
	fresh := &Runner{Workers: 2, JournalDir: dir}
	counts = countReplays(fresh)
	replay, _, err := fresh.RunPoint(context.Background(), memoPointCfg(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep, _ := counts(); rep != 2 {
		t.Fatalf("fresh runner replayed %d cells from the journal, want 2", rep)
	}
	if !reflect.DeepEqual(replay, want) {
		t.Fatal("journaled memo hits differ from a fresh runner's results")
	}
}

// TestMemoSkipsFailedCells: a permanently failed cell is not memoized, so
// the next stream simulates it again (and the fault, spent, lets it
// through).
func TestMemoSkipsFailedCells(t *testing.T) {
	traces := memoTraces()
	want := freshPoint(t, traces)

	r := &Runner{Workers: 2, AllowPartial: true, Faults: NewFaultPlan(FaultRule{
		Label: SweepLabel(500, circuit.ModeIRAW), TraceName: traces[0].Name,
		Window: -1, Kind: FaultError, Times: 1,
	})}
	counts := countReplays(r)
	_, err := r.Sweep(context.Background(), traces, streamModes, memoLevels)
	var pe *PartialError
	if !errors.As(err, &pe) || len(pe.Cells) != 1 {
		t.Fatalf("sweep err = %v, want a *PartialError with one failed cell", err)
	}
	if rep, sim := counts(); rep != 0 || sim != 7 {
		t.Fatalf("sweep: %d replayed, %d simulated; want 0, 7", rep, sim)
	}
	got, _, err := r.RunPoint(context.Background(), memoPointCfg(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep, sim := counts(); rep != 1 || sim != 1 {
		t.Fatalf("point: %d replayed, %d simulated; want 1, 1 (the failed cell re-simulates)", rep, sim)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results differ from a fresh runner's")
	}
}
