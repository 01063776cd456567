package sim

import (
	"context"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
)

// Runner executes independent simulation jobs across a bounded pool of
// goroutines. The zero value is ready to use and sizes the pool to
// runtime.GOMAXPROCS(0).
//
// Scheduling never affects results: Stream emits each (point, trace) cell
// as it completes, every cell's content is deterministic, and the batch
// collectors place cells by index and aggregate in a fixed order — so a
// Runner with one worker and a Runner with N workers produce bit-identical
// output for the same windowing configuration.
//
// A Runner remembers every cell it simulated successfully (a bounded
// in-process memo keyed like the journal), so a later stream on the same
// Runner replays a repeated cell instead of simulating it again. A cell the
// engine cannot tell apart from another (its canonical identity, see the
// package doc) replays too, even on a fresh Runner when an equivalent
// cell in the same stream simulated it. Results are identical either way;
// a test that must observe simulation uses a fresh Runner and configs that
// are their own canonical form. A Runner must not be copied after first
// use.
type Runner struct {
	// Workers bounds concurrency; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int

	// Width is the fetch/issue width of every core configuration the
	// runner builds itself (the sweep grids and the default-config
	// experiment paths); 0 selects the modelled core's default width
	// (core.DefaultConfig). It does not override the Cfg of an explicit
	// PointSpec. The width is part of the full core configuration, so it
	// flows into every journal content address — sweeps at different
	// widths never collide. Validated by core.Config.Validate via
	// core.DefaultConfigWidth, which also grows the IQ issue/alloc bounds
	// to fit wide cores.
	Width int

	// PointTimeout, when positive, bounds each (point, trace) cell's wall
	// clock, measured from the cell's first claimed window. A cell that
	// exceeds it aborts with a descriptive error, which fails the sweep the
	// same way any simulation error does (deterministic lowest-index
	// reporting — though whether a timeout fires at all depends on the
	// machine, so treat it as a guard rail, not a result).
	PointTimeout time.Duration

	// Progress, when non-nil, is invoked once per completed cell (and once
	// for the terminal error update, if any) before the update is placed on
	// the stream. Invocations are serialized and Done is strictly
	// increasing. Keep it fast: it runs on the emitting worker's goroutine.
	Progress func(PointUpdate)

	// WindowInsts selects sharded long-trace execution. Positive values
	// shard every trace longer than WindowInsts into deterministic sample
	// windows of that many measured instructions (trace.Shard), each
	// preceded by a WarmInsts warm-up prefix that executes unmeasured.
	// Sharded cells run each window as one pass on a fresh (Reset) core
	// and stitch with core.MergeWindowResults; traces at or under the
	// window size keep the exact unsharded warm-up + measure methodology.
	// 0 (the default) selects automatic windowing: traces of at least
	// autoWindowThreshold instructions shard into autoWindowCount windows,
	// shorter traces run unsharded. Negative values disable sharding
	// entirely — the explicit opt-out.
	WindowInsts int

	// WarmInsts is the per-window warm-up prefix length: positive values
	// are explicit, and 0 or negative values select the window's entire
	// prefix (full-history warm-up). Warm-up is functional replay
	// (core.RunWindow), and checkpointed replay makes whole-history warming
	// affordable (see Checkpoints).
	WarmInsts int

	// Retries bounds how many times a transiently-failed window (timeout,
	// preemption — anything IsTransient reports retryable) re-executes
	// before the cell is declared failed: a window runs at most Retries+1
	// times. Permanent failures (panics, simulation errors) never retry.
	Retries int

	// RetryBackoff is the sleep before the first retry, doubling per
	// subsequent attempt and jittered uniformly into [d/2, d] so retries
	// never synchronize — reassigned cells from a died worker must not
	// thundering-herd the journal or scheduler (0 = retry immediately).
	// The sleep aborts promptly on context cancellation.
	RetryBackoff time.Duration

	// JournalDir, when non-empty, enables the on-disk result journal
	// (internal/journal) rooted there: every completed cell's stitched
	// Result is recorded under a content address covering the trace bytes,
	// the full core configuration, the windowing plan and the engine
	// version, and a later run with the same inputs replays recorded cells
	// instead of re-simulating them — a killed sweep resumes bit-identical
	// to an uninterrupted one. "" (the default) disables journaling.
	JournalDir string

	// JournalSync selects fsync-on-Put for the journal (power-loss
	// durability instead of crash-only; see journal.SetSync). The sweep
	// daemon turns it on; the CLIs leave it off.
	JournalSync bool

	// JournalBudget, when positive, caps the journal directory at that
	// many bytes: least-recently-used entries are evicted past the cap
	// (journal.SetBudget). An evicted entry is a future re-simulation,
	// never an error. 0 (the default) means unbounded.
	JournalBudget int64

	// CkptBudget, when positive, caps the on-disk checkpoint store at
	// that many bytes of snapshot files (ckpt.SetBudget): each snapshot is
	// one file, files evict least-recently-used first, and an evicted
	// snapshot degrades to live warm replay. 0 means unbounded.
	CkptBudget int64

	// AllowPartial switches failure handling from strict (a failed cell
	// cancels the sweep; the stream ends with one terminal error) to
	// partial (a failed cell emits its own *CellError update and every
	// other cell still runs). Batch collectors in partial mode return the
	// completed results alongside a *PartialError listing the failed cells.
	AllowPartial bool

	// Faults, when non-nil, deterministically injects failures for tests
	// (see FaultPlan). Production runners leave it nil.
	Faults *FaultPlan

	// CkptStore, when non-nil, is the warm-state checkpoint store sharded
	// functional warm-up prefixes restore from and capture into
	// (internal/ckpt) — the explicit hook for benchmarks and tests that
	// want to prime or inspect one store across several runners.
	CkptStore *ckpt.Store

	// CkptDir, when non-empty, roots an on-disk checkpoint store there
	// (consulted only when CkptStore is nil). When both are empty the
	// store defaults to JournalDir/ckpt when journaling is on — so sweep
	// workers sharing a journal directory share snapshots through the
	// filesystem — and otherwise to a process-wide in-memory store.
	CkptDir string

	// DisableCheckpoints selects the reference warm path: every sharded
	// window replays its full warm prefix live instead of restoring a
	// snapshot. Results are bit-identical either way (checkpointing moves
	// work, never numbers — fuzz-tested); this is the equivalence-test and
	// benchmark-baseline hook.
	DisableCheckpoints bool

	// ckptOnce/ckptMemo memoize the resolved store for CkptDir/JournalDir.
	ckptOnce sync.Once
	ckptMemo *ckpt.Store

	// memo holds the stitched results of cells this runner already
	// simulated, so a later stream replays them instead (see cellMemo).
	memo cellMemo
}

// memoCap bounds a runner's cell memo. A Result is under 1 KB, so a full
// memo stays near 4 MB; `figures -fig all` at its defaults needs 770.
const memoCap = 4096

// cellMemo is a runner's in-process result memo, keyed by the same
// content address as the journal (cellKey): trace bytes, full core
// configuration, engine version and windowing plan. Only successfully
// stitched cells enter it. Results are stored and handed out by value —
// core.Result holds no pointers — so no consumer can alias another's.
// Past memoCap new results are served but not kept, like
// workload.reschedCache.
type cellMemo struct {
	mu sync.Mutex
	m  map[string]memoEntry
}

type memoEntry struct {
	windows int
	res     core.Result
}

// get returns a fresh journal entry for key when the memo holds it.
func (m *cellMemo) get(key string) (*journal.Entry, bool) {
	m.mu.Lock()
	e, ok := m.m[key]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return &journal.Entry{Key: key, Windows: e.windows, Result: &e.res}, true
}

// put records a successful cell's stitched result, unless the memo is
// full.
func (m *cellMemo) put(key string, windows int, res *core.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.m) >= memoCap {
		return
	}
	if m.m == nil {
		m.m = make(map[string]memoEntry)
	}
	m.m[key] = memoEntry{windows: windows, res: *res}
}

// pointConfig builds the core configuration for one operating point under
// the runner's width: the modelled default config at Width 0 (bit-identical
// journal keys to width-oblivious runners), core.DefaultConfigWidth
// otherwise. Every runner-built sweep grid goes through here so local
// sweeps, the sweep daemon and its workers agree on each cell's config —
// and therefore on its journal content address.
func (r *Runner) pointConfig(v circuit.Millivolts, mode circuit.Mode) core.Config {
	if r.Width == 0 {
		return core.DefaultConfig(v, mode)
	}
	return core.DefaultConfigWidth(v, mode, r.Width)
}

// Automatic windowing policy: with WindowInsts 0, traces of at least
// autoWindowThreshold instructions shard into autoWindowCount equal
// windows. The threshold keeps the evaluation suites (tens of thousands of
// instructions) on the exact unsharded methodology; the count is small
// enough that each window amortizes its pipeline cold-start and large
// enough to parallelize a long trace across a typical pool.
const (
	autoWindowThreshold = 200_000
	autoWindowCount     = 8
)

// planFor resolves the effective (window, warm) plan for a trace of n
// instructions — the pure function of (WindowInsts, WarmInsts, n)
// that the shard plan, the journal keys and the checkpoint boundaries are
// all defined by. A zero window result means the trace runs unsharded.
func (r *Runner) planFor(n int) (win, warm int) {
	win = r.WindowInsts
	switch {
	case win < 0:
		return 0, 0
	case win == 0:
		if n < autoWindowThreshold {
			return 0, 0
		}
		win = (n + autoWindowCount - 1) / autoWindowCount
	}
	warm = r.WarmInsts
	if warm == 0 {
		warm = -1 // full history: checkpoints make it near-free
	}
	return win, warm
}

// sharedCkpt is the process-wide in-memory checkpoint store runners fall
// back to when no directory is configured: every runner in the process
// shares one snapshot per (trace, config, boundary), which is exactly the
// point of content addressing.
var sharedCkpt, _ = ckpt.Open("")

// checkpoints resolves the runner's warm-state checkpoint store; nil means
// checkpoints are disabled. The CkptDir/JournalDir resolution is memoized:
// the store must be opened once so its in-memory half actually accumulates.
func (r *Runner) checkpoints() *ckpt.Store {
	if r.DisableCheckpoints {
		return nil
	}
	if r.CkptStore != nil {
		return r.CkptStore
	}
	r.ckptOnce.Do(func() {
		dir := r.CkptDir
		if dir == "" && r.JournalDir != "" {
			dir = filepath.Join(r.JournalDir, "ckpt")
		}
		if dir == "" {
			r.ckptMemo = sharedCkpt
			return
		}
		st, err := ckpt.Open(dir)
		if err != nil {
			// The store is a cache: an unusable directory degrades to the
			// shared in-memory store instead of failing the sweep.
			st = sharedCkpt
		} else if r.CkptBudget > 0 {
			st.SetBudget(r.CkptBudget)
		}
		r.ckptMemo = st
	})
	return r.ckptMemo
}

// workers resolves the effective pool size for n jobs.
func (r *Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach runs fn(worker, i) for every i in [0, n) on a pool of exactly
// `workers` goroutines (resolve the count once with r.workers(n) and share
// it with any worker-indexed state — re-resolving could disagree if
// Workers changes concurrently). worker is the stable index of the
// executing goroutine in [0, workers), so callers can keep worker-local
// scratch (the point runner caches one Core per worker). Jobs are handed
// out in index order.
//
// On failure, in-flight jobs finish, unclaimed jobs are abandoned, and the
// error of the lowest-index failed job is returned — deterministic no
// matter which worker hit its error first. Context cancellation likewise
// stops the pool and surfaces ctx.Err().
func (r *Runner) forEach(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		// Inline fast path: no goroutines, same job order.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				// Check for cancellation before claiming, never after: a
				// claimed job always runs. Claims are monotonic, so when
				// job j fails every job below j was claimed earlier and
				// has recorded its own failure by the time the pool
				// drains — the lowest-index-error guarantee depends on
				// claimed jobs never being abandoned.
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					errs[i] = err
					failed.Store(true)
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}
