// Package sim is the experiment harness: it runs the workload suite across
// voltage levels and design modes and regenerates every table and figure of
// the paper's evaluation (Section 5), plus the ablations DESIGN.md lists.
//
// Conventions:
//   - every core is warmed with one untimed pass of its trace before the
//     measured pass (the paper's production traces run warm);
//   - suite-level numbers aggregate cycles and time across traces, so they
//     are weighted means;
//   - the energy model is calibrated once per suite on the 600 mV baseline
//     run, per Section 5.1 ("leakage ... set to 10% of the total energy
//     consumption at 600mV").
//
// # Stream/collector architecture
//
// The experiment engine is a streaming pipeline. Runner.Stream is the one
// execution core: it fans every (point, trace) cell across the worker pool
// and emits a PointUpdate the moment a cell completes. Everything else is
// a collector over that stream:
//
//   - runPoints (backing RunPoint and every ablation) places updates into
//     (point, trace-index) slots and aggregates after the stream closes;
//   - FoldLevels is the one fold of a sweep grid's cells into operating
//     points and levels: it hands each voltage to its consumer as the
//     level's last cell lands (progressive consumers — cmd/figures,
//     cmd/vccsweep — render rows before the grid finishes). It reads any
//     grid stream in StreamGrid's point order: a local Runner.StreamGrid,
//     or the sweep daemon's cells through service.Client.Stream, the
//     adapter that maps each daemon cell event to the PointUpdate a local
//     stream would emit. StreamLevels is FoldLevels over StreamGrid;
//   - Sweep collects StreamLevels into the [mode][voltage] grid, and
//     Figure11bFold derives Figure 11(b)'s rows from either feed.
//
// Before simulating, Stream looks every cell up by its content address
// (Runner.CellKey: trace bytes, full core configuration, engine version
// and windowing plan): first in the on-disk journal when JournalDir is
// set, then in the Runner's in-process memo of cells its earlier streams
// simulated. A hit replays before the pool starts (PointUpdate.Replayed)
// and is never simulated or fault-injected; a memo hit the journal lacks
// is written to it. Only successful cells enter the memo, by value, and
// it is bounded (memoCap): past the cap new results are served but not
// kept. This is what makes `figures -fig all` simulate each distinct cell
// once — Figure 12 reuses Figure 11(b)'s grid, and the ablations reuse
// its default baseline/IRAW points.
//
// Every cell also has a canonical identity: the content address of the
// baseline config when its own config installs no fault maps and applies
// the baseline clock plan at its Vcc (core.AppliedPlan; at the model's
// calibration, IRAW at 600–700 mV and Extra-Bypass at 625–700 mV). The
// engine cannot tell such cells apart, so they simulate once. A cell
// missing under its own key replays from the journal or memo under its
// canonical key; within one stream, the first cell of a canonical key
// leads and takes jobs, and later ones follow, emitting as replayed when
// the leader stitches (a failed leader's followers fail with their own
// identity). Either way the cell gets its own copy of the Result with
// Plan re-derived from its config, recorded in the memo and the journal
// under its own key — journal keys never change.
//
// Both keys come from a Keyer (CellKeys), which hashes each trace and each
// config once in its lifetime. A stream keys its cells through one; the
// sweep daemon (internal/service) keys each submission through one, and
// its workers check and run each lease through one, so neither hashes a
// trace per cell. Follow is the one re-derivation of a follower's Result
// that the stream and the daemon share.
//
// Concurrency conventions:
//   - a Core is not goroutine-safe: exactly one Core per goroutine. The
//     Runner's worker pool gives each worker its own Core and reuses it
//     across jobs of the same operating point via (*core.Core).Reset,
//     which is guaranteed bit-identical to constructing a fresh Core;
//   - the fan-out unit is one (mode, vcc, trace) cell — or, with windowing
//     enabled, one sample window of a cell; jobs never share mutable
//     state, and each writes its *core.Result into its own slot;
//   - emission order follows completion and is scheduling-dependent, but
//     update *content* is not, and collectors place by index — so batch
//     output is bit-identical to sequential output for any worker count;
//   - errors are deterministic: the pool cancels on first failure and the
//     stream's terminal update carries the lowest-index job's error;
//   - cancellation and per-point timeouts preempt from inside the core's
//     run loop (Core.SetStopCheck), so the stream drains promptly even
//     mid-simulation;
//   - the package-level experiment functions (Sweep, RunPoint, the figure
//     and ablation generators) run on a shared default Runner (Default),
//     sized to GOMAXPROCS unless configured. Runner options are plain
//     exported fields: commands bind them to flags once at startup with
//     Runner.RegisterFlags, and library callers and tests build their own
//     Runner as a struct literal — never by mutating the default.
//
// # Sharding determinism rules
//
// With windowing enabled — explicitly (Runner.WindowInsts > 0) or by the
// automatic long-trace policy (WindowInsts 0 shards traces of at least
// autoWindowThreshold instructions; negative opts out) — long traces
// execute as deterministic sample windows instead of two full passes:
// trace.Shard cuts the trace into fixed measured spans, each prefixed by a
// warm-up interval that is functionally replayed, unmeasured, on a fresh
// core (core.RunWindow), and core.MergeWindowResults stitches the
// per-window results in window order. The rules that keep this
// deterministic:
//
//   - the shard plan is a pure function of (trace length, WindowInsts,
//     WarmInsts) via Runner.planFor — never of worker count, scheduling or
//     wall clock;
//   - each window simulates a fixed instruction span on a Reset core, so a
//     window's Result depends only on (config, trace bytes, plan);
//   - stitching always happens in window order, triggered by whichever
//     worker finishes the cell's last window;
//   - traces at or under the window size — and all traces when windowing
//     is off — keep the exact unsharded warm-up + measure methodology, so
//     WindowInsts = 0 and WindowInsts >= len(trace) are bit-identical to
//     the pre-streaming batch engine.
//
// Sharded numbers are a sample-window *approximation* of one production
// pass over the long trace, deterministic and worker-invariant for a fixed
// configuration but not bitwise equal to the unsharded run. Each window's
// prefix is replayed timing-free (core.WarmReplay), so the default prefix
// is the window's entire history and the stitched numbers land within a
// fraction of a percent of the whole-pass run (golden-tested on
// workload.LongTrace, and gated in scripts/bench_check.sh).
//
// Full-history warm-up is affordable because of the warm-state checkpoint
// store (internal/ckpt): each window's warm prefix restores the deepest
// snapshot at a window boundary and replays only the residual tail, so a
// window start costs O(state size) instead of O(prefix length), and one
// vcc-independent snapshot per (trace, boundary) is shared across every
// operating point, worker and — through a shared journal directory, where
// each snapshot is one sealed file beside the journal's entries — worker
// process of a sweep. Checkpointing moves work, never numbers: the
// live-replay reference path (Runner.DisableCheckpoints, -ckpt off) is
// bit-identical, enforced by an equivalence fuzz. A window with an empty
// warm prefix measures exactly as core.Run would.
//
// # Failure semantics
//
// The resilience layer wraps every unit of work so that one bad cell —
// a simulation error, a deadlock timeout, even a panic deep in the
// engine — has a bounded, predictable blast radius:
//
//   - Isolation. Each window job runs under recover(): a panic is
//     converted into a typed *CellError carrying the cell's (mode, vcc,
//     trace) identity, the failing window, the attempt count and the
//     recovered stack, instead of killing the process. A worker whose
//     core panicked or aborted drops its cached Core (Reset is
//     bit-identical to fresh construction, so dropping is always safe).
//
//   - Retry. Failures that mark themselves retryable via a
//     `Transient() bool` method (per-point timeouts, injected transient
//     faults) re-execute up to Runner.Retries times with exponential
//     backoff (Runner.RetryBackoff), re-arming the cell's wall-clock
//     budget per attempt. Permanent failures never retry. A cell that
//     exhausts its retries fails with Attempts recorded — reported, not
//     silently dropped.
//
//   - Strict mode (default). A failed cell cancels outstanding work and
//     the stream emits one terminal update (PointUpdate.Point = -1)
//     carrying the deterministic lowest-index *CellError — exactly the
//     pre-resilience contract, with a typed error.
//
//   - Partial mode (Runner.AllowPartial). A failed cell emits its own
//     update with Err set and identity intact; every other cell — and
//     every other window of the failed cell — still runs, so the
//     reported per-cell error is deterministically the lowest-window one.
//     Batch collectors return completed results plus a *PartialError
//     listing the failures in (point, trace) order; streaming renderers
//     (report.NewStreamTable consumers) mark the cell FAIL(reason) and
//     keep going. Only context cancellation is terminal.
//
//   - Journal (Runner.JournalDir). Completed cells are recorded in an
//     append-only content-addressed on-disk journal (internal/journal)
//     keyed by (trace bytes, full config, windowing plan,
//     core.EngineVersion). A re-run — including after kill -9 mid-sweep —
//     replays recorded cells bit-identically (PointUpdate.Replayed) and
//     simulates only the rest. Torn or corrupt entries are detected by
//     checksum and re-simulated; journal write failures cost only the
//     cache, never the sweep.
package sim

import (
	"context"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/energy"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// SuiteSpec sizes the standard evaluation workload.
type SuiteSpec struct {
	// InstsPerTrace is the dynamic length of each trace.
	InstsPerTrace int
	// SeedsPerProfile is how many traces each workload class contributes.
	SeedsPerProfile int
}

// DefaultSuite is the size used by the checked-in experiments: large enough
// for warm caches and stable rates, small enough to sweep 13 voltages x
// several modes in seconds.
func DefaultSuite() SuiteSpec { return SuiteSpec{InstsPerTrace: 60000, SeedsPerProfile: 2} }

// QuickSuite is a fast variant for tests.
func QuickSuite() SuiteSpec { return SuiteSpec{InstsPerTrace: 20000, SeedsPerProfile: 1} }

// Traces materializes the suite.
func (s SuiteSpec) Traces() []*trace.Trace {
	return workload.Suite(s.InstsPerTrace, s.SeedsPerProfile)
}

// defaultRunner backs the package-level experiment functions: a shared
// GOMAXPROCS-sized pool. Its only state across calls is the cell memo,
// which moves work and never numbers, so sharing it is invisible in the
// results — and is what lets one figure reuse another's cells.
var defaultRunner = &Runner{}

// Default returns the runner behind the package-level experiment
// functions, so a command can configure it once at startup — typically by
// binding its flags with RegisterFlags — before running any experiment.
// Its fields are not synchronized against experiments already running.
func Default() *Runner { return defaultRunner }

// SetWorkers bounds the default runner's pool to n goroutines; n <= 0
// restores GOMAXPROCS sizing. Startup-time only, like any change to
// Default().
func SetWorkers(n int) { defaultRunner.Workers = n }

// SetProgress installs a per-cell completion callback on the default
// runner; nil removes it. Startup-time only, like SetWorkers.
func SetProgress(f func(PointUpdate)) { defaultRunner.Progress = f }

// RunPoint simulates every trace at one operating point (warm measurement)
// and returns the per-trace results plus their aggregate. Traces fan out
// across the default runner's pool; results are in trace order.
func RunPoint(cfg core.Config, traces []*trace.Trace) ([]*core.Result, *core.Result, error) {
	return defaultRunner.RunPoint(context.Background(), cfg, traces)
}

// Point is one aggregated operating-point measurement.
type Point struct {
	Vcc  circuit.Millivolts
	Mode circuit.Mode
	Agg  *core.Result
}

// Sweep runs the suite for each voltage level in each mode, fanning every
// (mode, voltage, trace) cell across the default runner's pool. modes maps
// to rows; the result is indexed [mode][voltage].
func Sweep(traces []*trace.Trace, modes []circuit.Mode, levels []circuit.Millivolts) (map[circuit.Mode]map[circuit.Millivolts]*Point, error) {
	return defaultRunner.Sweep(context.Background(), traces, modes, levels)
}

// CalibratedEnergy builds an energy model calibrated on the 600 mV baseline
// aggregate, as the paper prescribes. The calibration point is built at
// the default runner's configured width so width sweeps calibrate against
// a same-width baseline.
func CalibratedEnergy(traces []*trace.Trace) (*energy.Model, error) {
	cfg := defaultRunner.pointConfig(600, circuit.ModeBaseline)
	_, agg, err := RunPoint(cfg, traces)
	if err != nil {
		return nil, err
	}
	m := energy.New(energy.DefaultWeights())
	if err := m.Calibrate(agg.Activity, agg.Time); err != nil {
		return nil, err
	}
	return m, nil
}

// IRAWOverheads computes the area and pessimistic-energy overheads of the
// IRAW hardware for the default core (Section 5.3: <0.03% area, <1% energy).
func IRAWOverheads() energy.Area {
	c := core.MustNew(core.DefaultConfig(500, circuit.ModeIRAW))
	return energy.Area{
		CoreSRAMBits:     c.TotalSRAMBits(),
		ExtraLatchBits:   c.IRAWExtraBits(),
		LatchToSRAMRatio: 4,
	}
}
