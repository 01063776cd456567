// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark reports the paper's headline metrics as custom units next
// to the usual ns/op, so `go test -bench=.` doubles as the reproduction
// harness:
//
//	BenchmarkFig11bSpeedup   ...  1.57 freq-gain-500mV  1.44 perf-gain-500mV
//
// The workload is sized for stable rates at benchmark time; cmd/figures
// runs the same experiments at larger scale.
package lowvcc_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/service"
	"lowvcc/internal/sim"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

func benchSuite() []*trace.Trace {
	return sim.SuiteSpec{InstsPerTrace: 20000, SeedsPerProfile: 1}.Traces()
}

// emptyMemo resets the default runner behind the package-level
// generators. Its cell memo would otherwise replay the cells of earlier
// iterations and benchmarks, so the figure benchmarks call it at the top of
// every iteration to keep pricing simulation.
func emptyMemo() { *sim.Default() = sim.Runner{} }

// BenchmarkFig1DelayModel regenerates Figure 1 (delay curves vs Vcc).
func BenchmarkFig1DelayModel(b *testing.B) {
	var rows []sim.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = sim.Figure1()
	}
	for _, r := range rows {
		if r.Vcc == 450 {
			b.ReportMetric(r.BitcellWrite, "write-delay-450mV")
			b.ReportMetric(r.BitcellRead, "read-delay-450mV")
		}
	}
}

// BenchmarkFig11aCycleTime regenerates Figure 11(a) (cycle times vs Vcc).
func BenchmarkFig11aCycleTime(b *testing.B) {
	var rows []sim.Fig11aRow
	for i := 0; i < b.N; i++ {
		rows = sim.Figure11a()
	}
	for _, r := range rows {
		if r.Vcc == 500 {
			b.ReportMetric(r.BaselineCycle, "baseline-cycle-500mV")
			b.ReportMetric(r.IRAWCycle, "iraw-cycle-500mV")
		}
	}
}

// BenchmarkFig11bSpeedup regenerates Figure 11(b): frequency and
// performance gains (paper: +57%/+48% at 500 mV, +99%/+90% at 400 mV).
func BenchmarkFig11bSpeedup(b *testing.B) {
	traces := benchSuite()
	var rows []sim.Fig11bRow
	for i := 0; i < b.N; i++ {
		emptyMemo()
		var err error
		rows, err = sim.Figure11b(traces)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Vcc {
		case 500:
			b.ReportMetric(r.FreqGain, "freq-gain-500mV")
			b.ReportMetric(r.PerfGain, "perf-gain-500mV")
		case 400:
			b.ReportMetric(r.FreqGain, "freq-gain-400mV")
			b.ReportMetric(r.PerfGain, "perf-gain-400mV")
		}
	}
}

// BenchmarkFig12EDP regenerates Figure 12: relative energy, delay and EDP
// (paper: EDP 0.61 at 500 mV, 0.41 at 450 mV, 0.33 at 400 mV).
func BenchmarkFig12EDP(b *testing.B) {
	traces := benchSuite()
	var rows []sim.Fig12Row
	for i := 0; i < b.N; i++ {
		emptyMemo()
		var err error
		rows, err = sim.Figure12(traces)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Vcc {
		case 500:
			b.ReportMetric(r.RelEDP, "rel-EDP-500mV")
		case 450:
			b.ReportMetric(r.RelEDP, "rel-EDP-450mV")
		case 400:
			b.ReportMetric(r.RelEDP, "rel-EDP-400mV")
		}
	}
}

// BenchmarkTable1Mechanisms regenerates the quantitative Table 1 comparison
// (IRAW vs Faulty Bits vs Extra Bypass at 500 mV).
func BenchmarkTable1Mechanisms(b *testing.B) {
	traces := benchSuite()
	var res *sim.Table1Result
	for i := 0; i < b.N; i++ {
		emptyMemo()
		var err error
		res, err = sim.Table1(traces, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		switch r.Mode {
		case circuit.ModeIRAW:
			b.ReportMetric(r.PerfGain, "iraw-perf-gain")
		case circuit.ModeFaultyBits:
			b.ReportMetric(r.PerfGain, "faultybits-perf-gain")
		case circuit.ModeExtraBypass:
			b.ReportMetric(r.PerfGain, "extrabypass-perf-gain")
		}
	}
}

// BenchmarkStallBreakdown575 regenerates the Section 5.2 decomposition
// (paper: 8.86% total = 8.52% RF + 0.30% DL0 + 0.04% rest at 575 mV) and
// the 13.2%-delayed-instructions statistic.
func BenchmarkStallBreakdown575(b *testing.B) {
	traces := benchSuite()
	var bd *sim.BreakdownResult
	for i := 0; i < b.N; i++ {
		emptyMemo()
		var err error
		bd, err = sim.Breakdown(traces, 575)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*bd.PerfDrop, "perf-drop-%")
	b.ReportMetric(100*bd.RFShare, "rf-share-%")
	b.ReportMetric(100*bd.DL0Share, "dl0-share-%")
	b.ReportMetric(100*bd.DelayedFraction, "delayed-%")
}

// BenchmarkBPStats regenerates the Section 4.5 prediction-only statistics
// (paper: 0.0017% potential extra mispredictions, no RSB conflicts).
func BenchmarkBPStats(b *testing.B) {
	traces := benchSuite()
	var res *sim.BPStatsResult
	for i := 0; i < b.N; i++ {
		emptyMemo()
		var err error
		res, err = sim.BPStats(traces, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.PotentialCorruptionRate, "bp-corrupt-%")
	b.ReportMetric(float64(res.RSBConflicts), "rsb-conflicts")
}

// BenchmarkOverheads regenerates the Section 5.3 area/energy accounting
// (paper: <0.03% area, <1% energy).
func BenchmarkOverheads(b *testing.B) {
	var a = sim.IRAWOverheads()
	for i := 0; i < b.N; i++ {
		a = sim.IRAWOverheads()
	}
	b.ReportMetric(100*a.OverheadFraction(), "area-ovh-%")
	b.ReportMetric(100*a.EnergyOverheadFraction(), "energy-ovh-%")
}

// BenchmarkEDP450Example regenerates the Section 5.3 worked example
// (paper illustration: 5 J unconstrained, 8.50 J baseline, 6.40 J IRAW).
func BenchmarkEDP450Example(b *testing.B) {
	traces := benchSuite()
	var res *sim.EDP450Result
	for i := 0; i < b.N; i++ {
		emptyMemo()
		var err error
		res, err = sim.EDP450(traces)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Baseline.Total(), "baseline-J")
	b.ReportMetric(res.IRAW.Total(), "iraw-J")
}

// BenchmarkNSweepAblation measures the forced-N ablation (Section 5.2's
// "different technology nodes" scenario).
func BenchmarkNSweepAblation(b *testing.B) {
	traces := benchSuite()
	var rows []sim.NSweepRow
	for i := 0; i < b.N; i++ {
		emptyMemo()
		var err error
		rows, err = sim.NSweep(traces, 500, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.N == 1 || r.N == 3 {
			b.ReportMetric(r.PerfGain, "perf-gain-N"+string(rune('0'+r.N)))
		}
	}
}

// BenchmarkCompilerResched measures the future-work compiler extension.
func BenchmarkCompilerResched(b *testing.B) {
	traces := benchSuite()
	var res *sim.ReschedResult
	for i := 0; i < b.N; i++ {
		emptyMemo()
		var err error
		res, err = sim.CompilerResched(traces, 500, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.DelayedBefore, "delayed-before-%")
	b.ReportMetric(100*res.DelayedAfter, "delayed-after-%")
}

// BenchmarkShardedLongTrace measures the sharded long-trace path: a
// one-point sweep over a single long production-style trace, unsharded
// (whole-trace warm-up + measured pass, the serialization ROADMAP called
// out) versus sharded into 8 sample windows at 8 workers, each window's
// history replayed functionally (core.WarmReplay, timing-free). Sharding
// wins even on one CPU — each window runs one pass over its warm-up prefix
// plus span instead of two full passes — and parallel machines
// additionally overlap the windows.
//
// Two acceptance metrics: sharded-speedup (unsharded over sharded
// wall-clock, recorded since BENCH_3.json) and shard-bias-% (the absolute
// IPC deviation of the sharded stitch from the cold single production pass
// the windows approximate; gated in bench_check.sh). BENCH_3 through
// BENCH_10 also recorded a timed-warm-up arm (timedwarm-sharded-s,
// timedwarm-bias-%); that warm-up mode no longer exists.
//
// A third arm repeats the sharded run with the result journal
// enabled against a cold directory each iteration — all cost, no replay
// benefit — and reports journal-overhead-% (recorded since BENCH_6.json;
// the resilience layer's cache must stay under a few percent on top of
// sharded execution). Journaling stays off in every other arm and every
// other benchmark: benches measure simulation, not the cache.
//
// Since BENCH_8.json the functional arm warms at the runner's new default —
// warm=-1, the full trace prefix — through a warm-state checkpoint store
// primed once before the clock starts, so every timed window start is an
// O(state) snapshot restore plus a residual replay of at most one window.
// A fourth arm runs the identical full-history configuration with
// checkpoints disabled (live functional replay of every prefix, the
// reference path) and must produce bit-identical results; the pair yields
// ckptoff-sharded-s, ckpt-restore-speedup (reference over checkpointed
// wall-clock) and ckpt-hit-rate-% (store hits over lookups across the timed
// loop). Full-history warm is what drives shard-bias-% to ~0: BENCH_7's
// two-window default recorded -2.45%.
func BenchmarkShardedLongTrace(b *testing.B) {
	tr := workload.LongTrace(700000, 11)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	ctx := context.Background()
	win := len(tr.Insts) / 8
	// The cold single production pass the sample windows approximate: the
	// bias reference (deterministic, so computed once outside the timing).
	cold, err := core.MustNew(cfg).Run(tr)
	if err != nil {
		b.Fatal(err)
	}
	bias := func(r *core.Result) float64 {
		d := 100 * (r.IPC() - cold.IPC()) / cold.IPC()
		if d < 0 {
			return -d
		}
		return d
	}
	// Shared checkpoint store, primed before the clock starts: the timed
	// checkpointed arms measure the steady state every operating point after
	// the first one sees (snapshots are vcc-independent, so a real sweep
	// captures once and restores everywhere).
	st, err := ckpt.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	prime := &sim.Runner{Workers: 8, WindowInsts: win, CkptStore: st}
	if _, _, err := prime.RunPoint(ctx, cfg, []*trace.Trace{tr}); err != nil {
		b.Fatal(err)
	}
	primed := st.Stats()
	b.ResetTimer()
	var unsharded, sharded, ckptOff, journaled time.Duration
	var funcRes *core.Result
	for i := 0; i < b.N; i++ {
		// Explicit opt-out: auto-windowing would otherwise shard this trace.
		r := &sim.Runner{Workers: 8, WindowInsts: -1}
		t0 := time.Now()
		if _, _, err := r.RunPoint(ctx, cfg, []*trace.Trace{tr}); err != nil {
			b.Fatal(err)
		}
		unsharded += time.Since(t0)
		rf := &sim.Runner{Workers: 8, WindowInsts: win, CkptStore: st}
		t2 := time.Now()
		fper, _, err := rf.RunPoint(ctx, cfg, []*trace.Trace{tr})
		if err != nil {
			b.Fatal(err)
		}
		sharded += time.Since(t2)
		funcRes = fper[0]
		// The reference path: identical full-history windows, every prefix
		// replayed live. Bit-identity here is the benchmark's correctness
		// gate for the store.
		ro := &sim.Runner{Workers: 8, WindowInsts: win, DisableCheckpoints: true}
		t3 := time.Now()
		oper, _, err := ro.RunPoint(ctx, cfg, []*trace.Trace{tr})
		if err != nil {
			b.Fatal(err)
		}
		ckptOff += time.Since(t3)
		if oper[0].Run != funcRes.Run {
			b.Fatal("checkpointed run diverged from the live-replay reference")
		}
		// Cold journal every iteration: measures the full write-side cost
		// (trace hashing, encode, fsync-free atomic rename) with zero hits.
		// The shared checkpoint store rides along so the only delta against
		// the sharded arm is the journal itself.
		rj := &sim.Runner{Workers: 8, WindowInsts: win, CkptStore: st, JournalDir: b.TempDir()}
		t4 := time.Now()
		jper, _, err := rj.RunPoint(ctx, cfg, []*trace.Trace{tr})
		if err != nil {
			b.Fatal(err)
		}
		journaled += time.Since(t4)
		if jper[0].Run != funcRes.Run {
			b.Fatal("journaled run diverged from the plain sharded run")
		}
	}
	b.StopTimer()
	b.ReportMetric(unsharded.Seconds()/float64(b.N), "unsharded-s")
	b.ReportMetric(sharded.Seconds()/float64(b.N), "sharded-s")
	b.ReportMetric(unsharded.Seconds()/sharded.Seconds(), "sharded-speedup")
	// Both absolute rates, so the trajectory JSON is self-describing: the
	// speedup ratio can be recomputed from them without this source.
	b.ReportMetric(float64(len(tr.Insts))*float64(b.N)/unsharded.Seconds(), "unsharded-insts/s")
	b.ReportMetric(float64(len(tr.Insts))*float64(b.N)/sharded.Seconds(), "sharded-insts/s")
	b.ReportMetric(bias(funcRes), "shard-bias-%")
	b.ReportMetric(journaled.Seconds()/float64(b.N), "journaled-sharded-s")
	b.ReportMetric(100*(journaled.Seconds()-sharded.Seconds())/sharded.Seconds(), "journal-overhead-%")
	b.ReportMetric(ckptOff.Seconds()/float64(b.N), "ckptoff-sharded-s")
	b.ReportMetric(ckptOff.Seconds()/sharded.Seconds(), "ckpt-restore-speedup")
	s := st.Stats()
	if lookups := (s.Hits - primed.Hits) + (s.Misses - primed.Misses); lookups > 0 {
		b.ReportMetric(100*float64(s.Hits-primed.Hits)/float64(lookups), "ckpt-hit-rate-%")
	}
}

// BenchmarkMemBoundThroughput measures simulator speed on the cache-hostile
// streaming profile (workload.MemBound), where the memory hierarchy's
// per-access work — TLB check, STable probe, set-wide sram read, oracle
// signature, MSHR bookkeeping — dominates. The trace is production-scale
// (300k instructions, cf. the paper's 10M-instruction traces and
// BenchmarkShardedLongTrace's 700k): at that length any per-access state
// that grew with every line ever missed or stored, instead of staying at
// working-set size, would compound into the rate. It reports
// membound-insts/s, the rate scripts/bench_check.sh gates on.
func BenchmarkMemBoundThroughput(b *testing.B) {
	tr := workload.Generate(workload.MemBound(), 300000, 1)
	c := core.MustNew(core.DefaultConfig(500, circuit.ModeIRAW))
	if _, err := c.Run(tr); err != nil { // warm the caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "membound-insts/s")
}

// BenchmarkWideCore measures simulator speed across the fetch/issue width
// axis (1, 2, 4) on the warm SpecInt profile. Width 2 is the modelled
// default (DefaultConfigWidth(v, mode, 2) == DefaultConfig), so its rate
// tracks BenchmarkCoreThroughput; widths above 2 walk more IQ slots per
// cycle through the struct-of-arrays issue loop's per-slot scoreboard
// checks. The three cores run interleaved inside one
// iteration so the width1/width2/width4 rates share machine-load noise.
// All three are informational in bench_check.sh (reported, never gated) —
// a wider core does more work per simulated instruction, so the absolute
// rates are not comparable to the gated insts/s; the per-width IPC is
// deterministic and recorded too so the trajectory JSON shows the wide
// core actually issuing more.
func BenchmarkWideCore(b *testing.B) {
	tr := workload.Generate(workload.SpecInt(), 50000, 1)
	widths := []int{1, 2, 4}
	cores := make([]*core.Core, len(widths))
	durs := make([]time.Duration, len(widths))
	ipcs := make([]float64, len(widths))
	for i, w := range widths {
		cores[i] = core.MustNew(core.DefaultConfigWidth(500, circuit.ModeIRAW, w))
		r, err := cores[i].Run(tr) // warm-up, and the deterministic IPC
		if err != nil {
			b.Fatal(err)
		}
		ipcs[i] = r.IPC()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for wi, c := range cores {
			t0 := time.Now()
			if _, err := c.Run(tr); err != nil {
				b.Fatal(err)
			}
			durs[wi] += time.Since(t0)
		}
	}
	b.StopTimer()
	insts := float64(tr.Len()) * float64(b.N)
	for wi, w := range widths {
		b.ReportMetric(insts/durs[wi].Seconds(), fmt.Sprintf("width%d-insts/s", w))
		b.ReportMetric(ipcs[wi], fmt.Sprintf("width%d-ipc", w))
	}
}

// BenchmarkCoreThroughput measures raw simulator speed (instructions
// simulated per second), the practical cost of every experiment above.
func BenchmarkCoreThroughput(b *testing.B) {
	tr := workload.Generate(workload.SpecInt(), 50000, 1)
	c := core.MustNew(core.DefaultConfig(500, circuit.ModeIRAW))
	if _, err := c.Run(tr); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// waitSweep polls a sweep to its terminal state and fails the benchmark
// unless it finished clean.
func waitSweep(b *testing.B, s *service.Scheduler, id string) {
	b.Helper()
	for {
		st, err := s.Status(id)
		if err != nil {
			b.Fatal(err)
		}
		if st.Terminal() {
			if st.State != "done" {
				b.Fatalf("sweep %s ended %q (done %d, failed %d)", id, st.State, st.Done, st.Failed)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// BenchmarkSweepDaemon prices the sweep daemon's result push-down path.
// The same small grid runs through two deployments per iteration:
//
//   - shared: in-process workers journaling straight into the daemon's
//     directory, the classic shared-filesystem layout;
//   - pushdown: external-style workers pulling leases over loopback HTTP,
//     journaling into private directories, and uploading the sealed entry
//     bytes in Complete through the daemon's content check.
//
// pushdown-overhead-% is the extra wall-clock of the wire path over the
// shared path. It is informational (reported by bench_check.sh, never
// gated): at this benchmark's deliberately tiny cells the HTTP round
// trips are a visible fraction of each cell, which is the worst case —
// real sweeps amortize the same per-cell cost over far longer
// simulations. Fresh journal directories every iteration keep replay
// hits from shortcutting either arm.
func BenchmarkSweepDaemon(b *testing.B) {
	spec := sim.SweepSpec{
		InstsPerTrace:   10000,
		SeedsPerProfile: 1,
		Modes:           []string{"baseline", "iraw"},
		LevelsMV:        []int{500},
	}

	runShared := func() time.Duration {
		s, _, err := service.NewScheduler(service.SchedulerOpts{
			JournalDir:  b.TempDir(),
			JournalSync: false,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		stop := service.RunWorkers(context.Background(), s, 4,
			service.WorkerOpts{Poll: 2 * time.Millisecond})
		defer stop()
		t0 := time.Now()
		id, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		waitSweep(b, s, id)
		return time.Since(t0)
	}

	runPushDown := func() time.Duration {
		srv, _, err := service.NewServer(service.ServerOpts{
			SchedulerOpts: service.SchedulerOpts{
				JournalDir:  b.TempDir(),
				JournalSync: false,
			},
			Workers: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Scheduler().Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		wctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			opts := service.WorkerOpts{
				Name:       fmt.Sprintf("bench-%d", i),
				Poll:       2 * time.Millisecond,
				JournalDir: b.TempDir(), // private: nothing shared with the daemon
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				service.Work(wctx, ts.URL, opts)
			}()
		}
		t0 := time.Now()
		id, err := srv.Scheduler().Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		waitSweep(b, srv.Scheduler(), id)
		d := time.Since(t0)
		cancel()
		wg.Wait()
		return d
	}

	// One untimed warmup of each arm absorbs first-run costs (page cache,
	// TCP setup, lazy allocations) that would skew a 1x run.
	runShared()
	runPushDown()

	b.ResetTimer()
	var sharedD, pushD time.Duration
	for i := 0; i < b.N; i++ {
		sharedD += runShared()
		pushD += runPushDown()
	}
	b.ReportMetric(sharedD.Seconds()/float64(b.N), "shared-sweep-s")
	b.ReportMetric(pushD.Seconds()/float64(b.N), "pushdown-sweep-s")
	b.ReportMetric(100*(pushD.Seconds()-sharedD.Seconds())/sharedD.Seconds(),
		"pushdown-overhead-%")
}
