package main

// The traced run: each workload executed in-process, with the benchmark's
// own code making the calls into each layer's public functions and
// recording one span per call. Nothing inside the program is traced: where
// a layer runs inside another (the scoreboard, IQ and caches inside
// core.Run; the cells inside a sim.Runner stream), its time counts toward
// the enclosing span.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/isa"
	"lowvcc/internal/sim"
	"lowvcc/internal/stats"
	"lowvcc/internal/trace"
	wl "lowvcc/internal/workload"
)

// ---- figures-all ----

func tracedFigures(b *bench, t *tracer) (string, error) {
	rec := t.rec
	root := rec.begin("bench.figures-all", 0, "")
	var suite []*trace.Trace
	rec.do("workload.gen", root, "", func() error {
		suite = sim.SuiteSpec{InstsPerTrace: figuresInsts, SeedsPerProfile: 1}.Traces()
		return nil
	})
	hook := newCellHook(rec, "core.cell")
	sim.SetWorkers(2)
	sim.SetProgress(hook.update)
	var out bytes.Buffer
	g := &figGen{w: &out, suite: suite, rec: rec, parent: root, hook: hook}
	err := g.all()
	sim.SetProgress(nil)
	rec.end(root)
	if err != nil {
		return "", err
	}

	t.set("workload.gen_s", rec.total("workload.gen"))
	t.set("report.render_s", rec.total("report.render"))
	if pe, err := paperErrPct(out.Bytes()); err == nil {
		t.set("report.paper_err_pct", pe)
	}
	// The progress update carries no core configuration, so the figures'
	// cells are told apart by label and trace, not by Runner.CellKey.
	t.simCells(len(hook.cells), hook.distinctLabels(), rec.durationsMS("core.cell"),
		rec.total("core.cell"), 2*rec.total("sim.figure"))
	results := hook.results()
	var timed uint64
	for _, r := range results {
		timed += 2 * r.Run.Instructions // warm-up pass + measured pass
	}
	t.set("core.timed_minsts", float64(timed)/1e6)
	t.simulated(results)

	// Probe: the core's warm-up/measure split and allocation rates from
	// direct calls on the workload's own traces; the cache's cost per
	// access from their reference stream.
	probe := rec.begin("bench.probe", 0, "")
	_, err = coreRuns(t, probe, suite, core.DefaultConfig(500, circuit.ModeIRAW))
	if err == nil {
		err = cacheProbe(t, probe, suite)
	}
	rec.end(probe)
	return digestOf(out.Bytes()), err
}

// cellHook turns the runner's progress callback into one span per cell.
// The callback runs on the worker goroutine that finished the cell, right
// after it finished, so a cell spans from that worker's previous callback
// (or its stream's start) to this one: the core's warm-up and measured
// Run of an unsharded cell, or the windows that worker ran since, plus the
// runner's per-cell bookkeeping.
type cellHook struct {
	rec    *recorder
	name   string // the cell spans' name
	parent int    // the current figure's or sweep's span

	stepStart, streamStart, lastAny time.Time
	last                            map[uint64]time.Time

	cells []hookCell
}

// cellRef names a reported cell: its operating point's label and its trace.
type cellRef struct{ label, trace string }

type hookCell struct {
	cellRef
	windows int
	result  *core.Result
}

func newCellHook(rec *recorder, name string) *cellHook {
	return &cellHook{rec: rec, name: name}
}

func (h *cellHook) step(parent int) {
	h.parent, h.stepStart = parent, time.Now()
}

func (h *cellHook) update(u sim.PointUpdate) {
	now := time.Now()
	if u.Point < 0 || u.Err != nil {
		return
	}
	if u.Done == 1 { // a new stream: its workers start no earlier than this
		h.streamStart = h.stepStart
		if h.lastAny.After(h.streamStart) {
			h.streamStart = h.lastAny
		}
		h.last = make(map[uint64]time.Time)
	}
	g := goid()
	start, ok := h.last[g]
	if !ok {
		start = h.streamStart
	}
	ref := cellRef{u.Label, u.TraceName}
	h.rec.add(h.name, h.parent, ref.label+"/"+ref.trace, start, now)
	h.last[g], h.lastAny = now, now
	h.cells = append(h.cells, hookCell{ref, u.Windows, u.Result})
}

// distinctLabels counts the distinct label×trace pairs among the cells.
func (h *cellHook) distinctLabels() int {
	seen := make(map[cellRef]bool)
	for _, c := range h.cells {
		seen[c.cellRef] = true
	}
	return len(seen)
}

func (h *cellHook) refs() []cellRef {
	refs := make([]cellRef, len(h.cells))
	for i, c := range h.cells {
		refs[i] = c.cellRef
	}
	return refs
}

func (h *cellHook) results() []*core.Result {
	rs := make([]*core.Result, len(h.cells))
	for i, c := range h.cells {
		rs[i] = c.result
	}
	return rs
}

// result is the reported result of one cell (nil if none was reported).
func (h *cellHook) result(label, traceName string) *core.Result {
	for _, c := range h.cells {
		if c.cellRef == (cellRef{label, traceName}) {
			return c.result
		}
	}
	return nil
}

// interval is the window size the runner sharded tr with: its length over
// the window count the runner reported for its cells (the whole trace when
// it ran unsharded).
func (h *cellHook) interval(tr *trace.Trace) int {
	for _, c := range h.cells {
		if c.trace == tr.Name && c.windows > 0 {
			return (len(tr.Insts) + c.windows - 1) / c.windows
		}
	}
	return len(tr.Insts)
}

// goid returns the calling goroutine's id.
func goid() uint64 {
	var buf [32]byte
	s := buf[:runtime.Stack(buf[:], false)]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	n, _ := strconv.ParseUint(string(s), 10, 64)
	return n
}

// ---- sharded-sweep ----

// tracedSharded runs vccsweep's sharded grid through the program's own
// sim.Runner (two workers, a fresh in-memory checkpoint store, the progress
// hook giving one span per cell), then probes the checkpoint and window
// calls on the snapshots that run stored.
func tracedSharded(b *bench, t *tracer) (string, error) {
	rec := t.rec
	root := rec.begin("bench.sharded-sweep", 0, "")
	spec := sim.SweepSpec{InstsPerTrace: shardedInsts, SeedsPerProfile: 1, Modes: []string{"baseline", "iraw"}}
	modes, err := spec.CircuitModes()
	if err != nil {
		return "", err
	}
	levels := spec.Levels()
	var suite []*trace.Trace
	rec.do("workload.gen", root, "", func() error {
		suite = spec.Traces()
		return nil
	})
	store, err := ckpt.Open("")
	if err != nil {
		return "", err
	}
	hook := newCellHook(rec, "sim.cell")
	r := spec.NewRunner()
	r.Workers, r.CkptStore, r.Progress = 2, store, hook.update

	var out bytes.Buffer
	tbl, err := newSweepTable(&out, modes)
	if err != nil {
		return "", err
	}
	var aggs []*core.Result
	st0 := store.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sweep := rec.begin("sim.sweep", root, "")
	hook.step(sweep)
	err = r.StreamLevels(context.Background(), suite, modes, levels, func(v circuit.Millivolts, pts map[circuit.Mode]*sim.Point, fails map[circuit.Mode]*sim.CellError) error {
		for m, ce := range fails {
			return fmt.Errorf("%v %v: %v", v, m, ce)
		}
		for _, m := range modes {
			aggs = append(aggs, pts[m].Agg)
		}
		return rec.do("report.render", sweep, "", func() error { return addSweepRow(tbl, modes, v, pts) })
	})
	rec.end(sweep)
	runtime.ReadMemStats(&ms1)
	st := store.Stats()
	rec.end(root)
	if err != nil {
		return "", err
	}

	var timed uint64
	for _, a := range aggs {
		timed += a.Run.Instructions
	}
	interval := hook.interval(suite[0])
	t.set("workload.gen_s", rec.total("workload.gen"))
	t.set("report.render_s", rec.total("report.render"))
	t.set("core.timed_minsts", float64(timed)/1e6)
	t.set("core.allocs_per_kinst", float64(ms1.Mallocs-ms0.Mallocs)/(float64(timed)/1e3))
	t.set("core.bytes_per_kinst", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(float64(timed)/1e3))
	restores, replays := st.Restores-st0.Restores, st.Replays-st0.Replays
	t.set("ckpt.hit_ratio", ratio(float64(restores), float64(restores+replays)))
	t.set("ckpt.captures", float64(st.Captures-st0.Captures))
	// Each capture follows the live replay of the interval that ends at its
	// boundary. An interval a worker replays while another worker captures
	// the same boundary is not counted, so this is a lower bound.
	t.set("core.warm_minsts", float64(st.Captures-st0.Captures)*float64(interval)/1e6)
	distinct, err := distinctCellKeys(r, []sim.SweepSpec{spec}, hook.refs())
	if err != nil {
		return "", err
	}
	t.simCells(len(hook.cells), distinct, rec.durationsMS("sim.cell"), rec.total("sim.cell"), 2*rec.total("sim.sweep"))
	t.simulated(aggs)

	probe := rec.begin("bench.probe", 0, "")
	err = ckptProbe(b, t, probe, store, spec, suite, hook)
	if err == nil {
		err = cacheProbe(t, probe, suite)
	}
	rec.end(probe)
	return digestOf(out.Bytes()), err
}

// ckptProbe replays one operating point of the sharded grid (the last
// one, so every warm prefix restores) through the calls the runner makes
// per window — core.Reset, ckpt.Store.WarmTo, core.RunWarmed — and
// core.MergeWindowResults per cell, on the snapshots the run stored. It
// also times Core.RestoreWarm and Core.CaptureWarm on each stored
// snapshot, and writes one to disk for its size.
func ckptProbe(b *bench, t *tracer, parent int, store *ckpt.Store, spec sim.SweepSpec, suite []*trace.Trace, hook *cellHook) error {
	rec := t.rec
	modes, _ := spec.CircuitModes()
	levels := spec.Levels()
	v, m := levels[len(levels)-1], modes[len(modes)-1]
	cfg := spec.PointConfig(v, m)
	wk := ckpt.WarmConfigKey(cfg)
	c, err := core.New(cfg)
	if err != nil {
		return err
	}
	var insts uint64
	var kb float64
	for _, tr := range suite {
		var hash string
		if err := rec.do("trace.write", parent, tr.Name, func() error {
			h := sha256.New()
			err := trace.Write(h, tr)
			hash = hex.EncodeToString(h.Sum(nil))
			return err
		}); err != nil {
			return err
		}
		interval := hook.interval(tr)
		var windows []trace.Window
		rec.do("trace.shard", parent, tr.Name, func() error {
			windows = trace.Shard(tr, interval, -1)
			return nil
		})
		results := make([]*core.Result, len(windows))
		for i := range windows {
			win := &windows[i]
			id := fmt.Sprintf("%s#%d", tr.Name, i)
			err := rec.do("core.reset", parent, id, c.Reset)
			if err == nil {
				err = rec.do("ckpt.warm", parent, id, func() error {
					return store.WarmTo(c, hash, wk, interval, win.Trace, win.Warm)
				})
			}
			if err == nil {
				err = rec.do("core.window", parent, id, func() (e error) { results[i], e = c.RunWarmed(win.Trace, win.Warm); return })
			}
			if err != nil {
				return err
			}
			insts += results[i].Run.Instructions
		}
		var merged *core.Result
		rec.do("sim.stitch", parent, tr.Name, func() error {
			merged = core.MergeWindowResults(tr.Name, results)
			return nil
		})
		if run := hook.result(sim.SweepLabel(v, m), tr.Name); run == nil || !reflect.DeepEqual(run, merged) {
			fmt.Printf("note: the checkpoint probe's %s cell differs from the run's; its shard plan no longer matches the runner's\n", tr.Name)
		}

		for bd := interval; bd < len(tr.Insts); bd += interval {
			key := ckpt.SnapshotKey(hash, wk, bd)
			ws, ok := store.Get(key)
			if !ok {
				continue
			}
			id := fmt.Sprintf("%s@%d", tr.Name, bd)
			err := rec.do("core.reset", parent, id, c.Reset)
			if err == nil {
				err = rec.do("ckpt.restore", parent, id, func() error { return c.RestoreWarm(ws) })
			}
			if err == nil {
				err = rec.do("ckpt.capture", parent, id, func() error { _, e := c.CaptureWarm(); return e })
			}
			if err != nil {
				return err
			}
			if kb == 0 {
				if kb, err = snapshotKB(b, key, ws); err != nil {
					return err
				}
			}
		}
	}
	window := rec.total("core.window")
	t.set("trace.write_s", rec.total("trace.write"))
	t.set("trace.shard_s", rec.total("trace.shard"))
	t.set("ckpt.warm_s", rec.total("ckpt.warm"))
	t.set("ckpt.restore_s", rec.total("ckpt.restore"))
	t.set("ckpt.capture_s", rec.total("ckpt.capture"))
	t.set("ckpt.snapshot_kb", kb)
	t.set("sim.stitch_s", rec.total("sim.stitch"))
	t.set("core.window_s", window)
	t.set("core.ns_per_inst", 1e9*window/float64(insts))
	return nil
}

// distinctCellKeys counts the distinct Runner.CellKey values of the given
// sweep cells; a cell's label names its operating point in one of specs.
func distinctCellKeys(r *sim.Runner, specs []sim.SweepSpec, cells []cellRef) (int, error) {
	cfgs := make(map[string]core.Config)
	traces := make(map[string]*trace.Trace)
	for _, spec := range specs {
		modes, err := spec.CircuitModes()
		if err != nil {
			return 0, err
		}
		for _, m := range modes {
			for _, v := range spec.Levels() {
				cfgs[sim.SweepLabel(v, m)] = spec.PointConfig(v, m)
			}
		}
		for _, tr := range spec.Traces() {
			traces[tr.Name] = tr
		}
	}
	byCell := make(map[cellRef]string)
	keys := make(map[string]bool)
	for _, cl := range cells {
		key, ok := byCell[cl]
		if !ok {
			cfg, okc := cfgs[cl.label]
			tr, okt := traces[cl.trace]
			if !okc || !okt {
				return 0, fmt.Errorf("cell %s %s is not in the sweep grid", cl.label, cl.trace)
			}
			var err error
			if key, err = r.CellKey(cfg, tr); err != nil {
				return 0, err
			}
			byCell[cl] = key
		}
		keys[key] = true
	}
	return len(keys), nil
}

// snapshotKB is the on-disk size of one warm-state snapshot (its manifest
// plus blobs), written to a fresh disk-backed store.
func snapshotKB(b *bench, key string, ws *core.WarmState) (float64, error) {
	dir, err := b.scratch("ckpt-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	disk, err := ckpt.Open(dir)
	if err != nil {
		return 0, err
	}
	disk.Put(key, ws)
	return float64(dirBytes(dir)) / 1024, nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// ---- membound-trace ----

func tracedMembound(b *bench, t *tracer) (string, error) {
	rec := t.rec
	root := rec.begin("bench.membound-trace", 0, "")
	var tr *trace.Trace
	rec.do("workload.gen", root, "", func() error {
		tr = wl.Generate(wl.MemBound(), memboundInsts, b.seed)
		return nil
	})
	path := filepath.Join(b.tmp, fmt.Sprintf("membound-%d.trc", b.seed))
	defer os.Remove(path)
	err := rec.do("trace.write", root, "", func() error { return writeTraceFile(path, tr) })
	timed := time.Now() // the untraced run times irawsim: read, simulate, report
	if err == nil {
		err = rec.do("trace.read", root, "", func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			tr, err = trace.Read(f)
			return err
		})
	}
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	res, err := coreRuns(t, root, []*trace.Trace{tr}, cfg)
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	err = rec.do("report.render", root, "", func() error { return renderIrawsim(&out, tr, res) })
	t.timed = time.Since(timed).Seconds()
	rec.end(root)
	if err != nil {
		return "", err
	}
	t.set("workload.gen_s", rec.total("workload.gen"))
	t.set("trace.write_s", rec.total("trace.write"))
	t.set("trace.read_s", rec.total("trace.read"))
	t.set("report.render_s", rec.total("report.render"))
	t.set("core.timed_minsts", 2*float64(res.Run.Instructions)/1e6)
	// irawsim runs its cells whole, as a runner with sharding off would.
	cells := []*trace.Trace{tr}
	keys := make(map[string]bool)
	for _, c := range cells {
		key, err := (&sim.Runner{WindowInsts: -1}).CellKey(cfg, c)
		if err != nil {
			return "", err
		}
		keys[key] = true
	}
	t.simCells(len(cells), len(keys), nil, 0, 0)
	t.simulated([]*core.Result{res})

	probe := rec.begin("bench.probe", 0, "")
	err = cacheProbe(t, probe, []*trace.Trace{tr})
	rec.end(probe)
	return digestOf(out.Bytes()), err
}

func writeTraceFile(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		return err
	}
	return f.Close()
}

// ---- shared probes and metric helpers ----

// coreRuns runs each trace the unsharded way — core.New, a discarded
// warm-up Run, a measured Run — and sets the core's timing and
// allocation metrics from the measured passes. It returns the last
// measured result.
func coreRuns(t *tracer, parent int, traces []*trace.Trace, cfg core.Config) (*core.Result, error) {
	rec := t.rec
	var insts, mallocs, bytesAlloc uint64
	var res *core.Result
	for _, tr := range traces {
		var c *core.Core
		if err := rec.do("core.new", parent, tr.Name, func() (e error) { c, e = core.New(cfg); return }); err != nil {
			return nil, err
		}
		if err := rec.do("core.warmup", parent, tr.Name, func() (e error) { _, e = c.Run(tr); return }); err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if err := rec.do("core.measure", parent, tr.Name, func() (e error) { res, e = c.Run(tr); return }); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytesAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		insts += res.Run.Instructions
	}
	measure := rec.total("core.measure")
	t.set("core.warmup_s", rec.total("core.warmup"))
	t.set("core.measure_s", measure)
	t.set("core.ns_per_inst", 1e9*measure/float64(insts))
	t.set("core.allocs_per_kinst", float64(mallocs)/(float64(insts)/1e3))
	t.set("core.bytes_per_kinst", float64(bytesAlloc)/(float64(insts)/1e3))
	return res, nil
}

// cacheProbeRefs bounds the reference stream the cache probe replays.
const cacheProbeRefs = 400000

// cacheProbe feeds the traces' fetch/load/store reference stream through
// a fresh default cache.Hierarchy's public FetchInst/Load/CommitStore and
// sets the mean host time per access.
func cacheProbe(t *tracer, parent int, traces []*trace.Trace) error {
	h, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		return err
	}
	refs := 0
	var cycle int64
	span := t.rec.begin("cache.probe", parent, "")
	start := time.Now()
	for _, tr := range traces {
		for i := range tr.Insts {
			if refs >= cacheProbeRefs {
				break
			}
			in := &tr.Insts[i]
			h.FetchInst(cycle, in.PC)
			refs++
			switch in.Op {
			case isa.OpLoad:
				h.Load(cycle, in.Addr)
				refs++
			case isa.OpStore:
				h.CommitStore(cycle, in.Addr, in.PC)
				refs++
			}
			cycle += 4
		}
	}
	elapsed := time.Since(start)
	t.rec.end(span)
	t.set("cache.ns_per_access", float64(elapsed.Nanoseconds())/float64(refs))
	return nil
}

// simCells sets the runner-level metrics from the cells a workload ran,
// their durations in ms, and the pool's busy and available time.
func (t *tracer) simCells(cells, distinct int, cellMS []float64, busy, avail float64) {
	t.set("sim.cells", float64(cells))
	t.set("sim.distinct_cells", float64(distinct))
	t.set("sim.unique_ratio", ratio(float64(distinct), float64(cells)))
	t.set("sim.pool_busy_frac", ratio(busy, avail))
	t.set("sim.cell_ms.n", float64(len(cellMS)))
	t.setPct("sim.cell_ms.p50", cellMS, 0.5)
	t.setPct("sim.cell_ms.p90", cellMS, 0.9)
}

// simulated sets the simulator's deterministic outputs, summed over the
// given results: CPI, stall and delay fractions, cache miss ratios.
func (t *tracer) simulated(results []*core.Result) {
	agg := core.MergeResults(results)
	run := &agg.Run
	insts := float64(run.Instructions)
	t.set("core.sim_cpi", ratio(float64(run.Cycles), insts))
	t.set("core.stall_frac.iraw", run.IRAWStallFraction())
	t.set("core.stall_frac.memory", run.StallFraction(stats.StallMemory))
	t.set("core.delayed_frac", run.DelayedFraction())
	miss := func(s cache.Stats) float64 { return ratio(float64(s.Misses), float64(s.Accesses)) }
	t.set("cache.accesses_per_inst", ratio(float64(agg.IL0.Accesses+agg.DL0.Accesses), insts))
	t.set("cache.il0.miss_ratio", miss(agg.IL0))
	t.set("cache.dl0.miss_ratio", miss(agg.DL0))
	t.set("cache.ul1.miss_ratio", miss(agg.UL1))
	t.set("cache.dtlb.miss_ratio", miss(agg.DTLB))
	t.set("cache.stable_forwards_per_kinst", ratio(float64(agg.Mem.STableForwards), insts/1e3))
}
