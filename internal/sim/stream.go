package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/trace"
)

// PointSpec is one operating point to simulate: a core configuration over
// an ordered trace list, plus a label for error reporting and progress
// lines.
type PointSpec struct {
	Label  string
	Cfg    core.Config
	Traces []*trace.Trace
}

// PointUpdate is one event on the result stream: a completed (point, trace)
// cell — simulated, replayed from the journal or the runner's memo, or
// (with AllowPartial) an isolated failure — or, as the last update before
// the channel closes, the sweep's terminal error.
type PointUpdate struct {
	// Point and Trace locate the cell: specs[Point].Traces[Trace].
	// Both are -1 on the terminal error update.
	Point int
	Trace int
	// Label and TraceName identify the cell for progress lines.
	Label     string
	TraceName string
	// Windows is how many sample windows the cell was sharded into
	// (1 = unsharded whole-trace execution).
	Windows int
	// Result is the cell's (stitched) result; nil when Err is set.
	Result *core.Result
	// Replayed reports that this stream did not simulate the cell: Result
	// came from the journal or the runner's memo, or an equivalent cell in
	// this stream simulated it (see the package doc's canonical identity).
	Replayed bool
	// Err carries a failure. With Point >= 0 it is one cell's isolated
	// *CellError (AllowPartial mode; the stream continues). With Point < 0
	// it is the terminal update: the deterministic lowest-index *CellError
	// in strict mode, or the context's error on cancellation (from a sweep
	// daemon's stream, why the sweep ended short).
	Err error
	// Done and Total report stream progress in cells.
	Done, Total int
}

// cell is one (point, trace) unit of a stream: its shard plan, the
// per-window result and error slots, and the countdown that triggers
// stitch-and-emit when the last window lands.
type cell struct {
	point, traceIdx int
	name            string
	windows         []trace.Window
	results         []*core.Result
	errs            []error
	remaining       atomic.Int32
	// key is the cell's content address in the journal and the runner's
	// memo, canonKey its canonical identity's (canonicalConfig; equal to
	// key when the cell is its own canonical form); cached is its replayed
	// entry when either store already held either key.
	key, canonKey string
	cached        *journal.Entry
	// followers are this stream's later cells with the same canonical key:
	// they take no jobs and emit when this cell stitches.
	followers []*cell
	// traceHash, warmKey and winInsts feed the warm-state checkpoint
	// store: the snapshot family identity and the boundary spacing
	// (warmKey "" means checkpoints are off for this cell).
	traceHash, warmKey string
	winInsts           int
	// startedNanos is the wall-clock stamp of the cell's first claimed
	// window (re-armed when a window retries); the per-point timeout
	// measures from here.
	startedNanos atomic.Int64
}

// firstErr returns the lowest-window-index recorded error — deterministic
// because every window of a failed cell still runs and records.
func (cl *cell) firstErr() error {
	for _, err := range cl.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stream is the runner's core: it fans every (point, trace) cell of specs —
// sharded into sample windows when windowing is enabled — across the worker
// pool and emits each cell's result the moment its last window completes.
// Every batch API (Sweep, RunPoint, the ablations) is a thin collector over
// this stream.
//
// Emission order follows completion and is therefore scheduling-dependent,
// but each update's content is not: a cell's Result is bit-identical for
// any worker count, and collectors that place updates by (Point, Trace)
// reconstruct exactly the sequential output.
//
// Failure semantics (see the package doc's "Failure semantics" section for
// the full contract): every window job runs isolated — a panic inside the
// engine is recovered into a typed *CellError instead of killing the
// process — and transient failures retry per the runner's retry policy. In
// strict mode (the default) a failed cell cancels outstanding work and the
// stream emits one terminal update carrying the deterministic lowest-index
// *CellError, then closes. With AllowPartial, failures are isolated to
// their cell: the failed cell emits an update with Err set and identity
// intact, every other cell still runs, and only context cancellation is
// terminal. Cells whose results are already recorded — in the journal,
// when journaling is enabled, or in the runner's memo of cells an earlier
// stream on this Runner simulated, under their own or their canonical key
// — replay instantly (Replayed=true) before any simulation starts. A cell
// equivalent to an earlier cell of the same stream takes no jobs and
// emits, Replayed, right after that cell.
//
// Consumers must drain the channel until it closes; abandoning it
// mid-stream requires cancelling ctx (the producer drops sends once ctx is
// done, so cancellation drains promptly).
func (r *Runner) Stream(ctx context.Context, specs []PointSpec) <-chan PointUpdate {
	ch := make(chan PointUpdate)
	go r.stream(ctx, r.NewKeyer(), specs, ch)
	return ch
}

// cfgHash content-addresses the trace-independent half of a cell's inputs:
// the full core configuration and the engine version. The windowing plan
// joins at the cell key — it resolves per trace (planFor), so it cannot
// live in a per-point hash.
func cfgHash(cfg core.Config) (string, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("sim: hashing config: %w", err)
	}
	// Splice the retired DisableFastPaths member back in (always false), as
	// cellKey keeps its literal mode=0, so earlier journal keys stay valid.
	i := bytes.LastIndex(blob, []byte(`,"MaxCycles":`))
	blob = slices.Concat(blob[:i], []byte(`,"DisableFastPaths":false`), blob[i:])
	h := sha256.Sum256(blob)
	return journal.Key(hex.EncodeToString(h[:]), core.EngineVersion), nil
}

// canonicalConfig returns the config whose cells the engine cannot tell
// apart from cfg's: the baseline config at cfg's Vcc when cfg installs no
// fault maps and its applied plan, Mode aside, is the baseline plan (IRAW
// below its activation gain, Extra-Bypass where a write fits one cycle),
// and cfg itself otherwise. The timed engine reads a mode only through
// the applied plan and the fault maps, so both configs simulate
// bit-identically apart from Result.Plan.Mode. The baseline form resets
// every knob the baseline plan never reads, so a baseline config is its
// own canonical form. A config the engine rejects keeps its own identity
// and fails in simulation as before.
func canonicalConfig(cfg core.Config) core.Config {
	plan, err := core.AppliedPlan(cfg)
	if err != nil || core.InstallsFaultMaps(cfg) {
		return cfg
	}
	base := cfg
	base.Mode, base.ForcedN, base.DisableAvoidance = circuit.ModeBaseline, 0, false
	basePlan, err := core.AppliedPlan(base)
	plan.Mode = circuit.ModeBaseline
	if err != nil || plan != basePlan {
		return cfg
	}
	return base
}

// cellKey assembles a cell's journal content address from its trace hash,
// point hash and the windowing plan resolved for its trace length.
func (r *Runner) cellKey(th, pointKey string, n int) string {
	win, warm := r.planFor(n)
	// The "mode=0" suffix is the retired warm-mode axis, kept literal so
	// journal entries written by earlier builds stay addressable.
	return journal.Key(th, pointKey,
		fmt.Sprintf("win=%d warm=%d mode=0", win, warm))
}

// traceHash content-addresses a trace's full binary encoding (name and
// records).
func traceHash(t *trace.Trace) (string, error) {
	h := sha256.New()
	if err := trace.Write(h, t); err != nil {
		return "", fmt.Errorf("sim: hashing trace %s: %w", t.Name, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CellKeys are one cell's two content addresses under a runner's
// windowing plan.
type CellKeys struct {
	// Key is the journal content address the cell's stitched Result is
	// recorded under (Runner.CellKey).
	Key string
	// Canon is the key of the cell's canonical identity: the key of the
	// baseline cell the engine cannot tell it apart from, or Key itself
	// when the cell is its own canonical form.
	Canon string
}

// Keyer derives cell keys under one runner's windowing plan. It hashes
// each distinct trace, and each distinct config with its canonical form,
// once in its lifetime, so keying a grid of P points over T traces costs T
// trace hashes rather than P×T. It keeps every hash it made until it is
// dropped: make one per stream, submission or lease. A Keyer is not safe
// for concurrent use.
type Keyer struct {
	r      *Runner
	traces map[*trace.Trace]string
	points map[core.Config]pointKeys
}

// pointKeys are one config's content hash and its canonical form's.
type pointKeys struct{ key, canon string }

// NewKeyer returns a Keyer for r's windowing plan.
func (r *Runner) NewKeyer() *Keyer {
	return &Keyer{r: r, traces: make(map[*trace.Trace]string), points: make(map[core.Config]pointKeys)}
}

// Keys derives the (cfg, tr) cell's requested and canonical keys.
func (k *Keyer) Keys(cfg core.Config, tr *trace.Trace) (CellKeys, error) {
	pk, err := k.point(cfg)
	if err != nil {
		return CellKeys{}, err
	}
	th, err := k.trace(tr)
	if err != nil {
		return CellKeys{}, err
	}
	return k.r.cellKeys(th, pk, len(tr.Insts)), nil
}

// point returns cfg's point keys, hashing cfg and its canonical form on
// first use.
func (k *Keyer) point(cfg core.Config) (pointKeys, error) {
	if pk, ok := k.points[cfg]; ok {
		return pk, nil
	}
	key, err := cfgHash(cfg)
	if err != nil {
		return pointKeys{}, err
	}
	pk := pointKeys{key, key}
	if canon := canonicalConfig(cfg); canon != cfg {
		if pk.canon, err = cfgHash(canon); err != nil {
			return pointKeys{}, err
		}
	}
	k.points[cfg] = pk
	return pk, nil
}

// trace returns tr's content hash, hashing it on first use.
func (k *Keyer) trace(tr *trace.Trace) (string, error) {
	if th, ok := k.traces[tr]; ok {
		return th, nil
	}
	th, err := traceHash(tr)
	if err != nil {
		return "", err
	}
	k.traces[tr] = th
	return th, nil
}

// cellKeys assembles a cell's two keys from its trace hash and point keys.
func (r *Runner) cellKeys(th string, pk pointKeys, n int) CellKeys {
	key := r.cellKey(th, pk.key, n)
	if pk.canon == pk.key {
		return CellKeys{Key: key, Canon: key}
	}
	return CellKeys{Key: key, Canon: r.cellKey(th, pk.canon, n)}
}

// CellKey returns the journal content address the (cfg, tr) cell's
// stitched Result is recorded under given this runner's windowing plan —
// the exact key Stream computes internally. External schedulers
// (internal/service) derive it, with the canonical key, through a Keyer to
// detect already-journaled cells before leasing any work, and workers use
// it to verify that their engine build and configuration agree with the
// daemon that granted the lease: a key mismatch means the two binaries
// would simulate different numbers, so the cell must not run.
func (r *Runner) CellKey(cfg core.Config, tr *trace.Trace) (string, error) {
	keys, err := r.NewKeyer().Keys(cfg, tr)
	return keys.Key, err
}

// RunCell runs exactly one (cfg, trace) cell through the stream — with the
// runner's windowing, retries, journal replay and fault injection all in
// effect — and returns the cell's stitched Result plus whether it replayed
// from the journal instead of simulating. label identifies the cell in
// errors, progress lines and fault-injection rules, exactly like a
// PointSpec label. k, when non-nil, supplies the hashes the stream keys
// the cell with: a caller that already keyed the cell through k (a sweep
// worker checking its lease) does not hash the trace again. nil keys the
// cell afresh.
func (r *Runner) RunCell(ctx context.Context, k *Keyer, label string, cfg core.Config, tr *trace.Trace) (*core.Result, bool, error) {
	if k == nil {
		k = r.NewKeyer()
	}
	ch := make(chan PointUpdate)
	go r.stream(ctx, k, []PointSpec{{Label: label, Cfg: cfg, Traces: []*trace.Trace{tr}}}, ch)
	var res *core.Result
	var replayed bool
	var firstErr error
	for u := range ch {
		if u.Err != nil {
			if firstErr == nil {
				firstErr = u.Err
			}
			continue
		}
		res, replayed = u.Result, u.Replayed
	}
	if firstErr != nil {
		return nil, false, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if res == nil {
		return nil, false, fmt.Errorf("sim: cell %s %s produced no result", label, tr.Name)
	}
	return res, replayed, nil
}

// stream runs specs on the pool, keying their cells through k.
func (r *Runner) stream(ctx context.Context, k *Keyer, specs []PointSpec, ch chan<- PointUpdate) {
	defer close(ch)

	// emit serializes channel sends, the Done counter and the Progress
	// callback: Progress observes strictly increasing Done values and is
	// never invoked concurrently. Sends drop once ctx is cancelled so
	// workers can never block on a departed consumer.
	var cells []*cell
	var emitMu sync.Mutex
	done := 0
	emit := func(u PointUpdate) {
		emitMu.Lock()
		defer emitMu.Unlock()
		done++
		u.Done, u.Total = done, len(cells)
		if r.Progress != nil {
			r.Progress(u)
		}
		select {
		case ch <- u:
		case <-ctx.Done():
		}
	}

	// The journal replays completed cells from an earlier (possibly
	// killed) run; a journal that cannot open is an infrastructure
	// failure, terminal in every mode.
	var jnl *journal.Journal
	if r.JournalDir != "" {
		var err error
		if jnl, err = journal.Open(r.JournalDir); err != nil {
			emit(PointUpdate{Point: -1, Trace: -1, Err: err})
			return
		}
		jnl.SetSync(r.JournalSync)
		if r.JournalBudget > 0 {
			jnl.SetBudget(r.JournalBudget)
		}
	}

	// Build the cells and the flat job list in (point, trace, window)
	// order. Job order is what makes strict-mode error reporting
	// deterministic (the pool surfaces the lowest-index failure) and keeps
	// consecutive jobs of one point adjacent, so the per-worker core-reuse
	// cache keeps hitting. Cells the journal or the runner's memo already
	// hold take no jobs: they replay before the pool starts.
	type jobRef struct {
		cell *cell
		win  int
	}
	st := r.checkpoints()
	var jobs []jobRef
	var replayed []*cell
	leaders := make(map[string]*cell)
	for p := range specs {
		pk, err := k.point(specs[p].Cfg)
		if err != nil {
			emit(PointUpdate{Point: -1, Trace: -1, Err: err})
			return
		}
		var warmKey string
		if st != nil {
			warmKey = ckpt.WarmConfigKey(specs[p].Cfg)
		}
		for ti, tr := range specs[p].Traces {
			cl := &cell{point: p, traceIdx: ti, name: tr.Name}
			if cl.traceHash, err = k.trace(tr); err != nil {
				emit(PointUpdate{Point: -1, Trace: -1, Err: err})
				return
			}
			keys := r.cellKeys(cl.traceHash, pk, len(tr.Insts))
			cl.key, cl.canonKey = keys.Key, keys.Canon
			cells = append(cells, cl)
			if cl.cached = r.replay(jnl, specs[p].Cfg, cl.key, cl.canonKey); cl.cached != nil {
				replayed = append(replayed, cl)
				continue
			}
			if lead := leaders[cl.canonKey]; lead != nil {
				lead.followers = append(lead.followers, cl)
				continue
			}
			leaders[cl.canonKey] = cl
			win, warm := r.planFor(len(tr.Insts))
			cl.winInsts = win
			cl.warmKey = warmKey
			cl.windows = trace.Shard(tr, win, warm)
			cl.results = make([]*core.Result, len(cl.windows))
			cl.errs = make([]error, len(cl.windows))
			cl.remaining.Store(int32(len(cl.windows)))
			for w := range cl.windows {
				jobs = append(jobs, jobRef{cl, w})
			}
		}
	}

	// Replays first, in (point, trace) order: a resumed sweep streams its
	// recovered prefix instantly, then simulates only the missing cells.
	for _, cl := range replayed {
		emit(PointUpdate{
			Point: cl.point, Trace: cl.traceIdx,
			Label: specs[cl.point].Label, TraceName: cl.name,
			Windows: cl.cached.Windows, Result: cl.cached.Result,
			Replayed: true,
		})
	}

	workers := r.workers(len(jobs))
	cores := make([]workerCore, workers)
	for i := range cores {
		cores[i].point = -1
	}

	// finish decrements the cell's window countdown and, on the last
	// window, stitches-and-emits (recording the stitched result in the memo
	// and the journal) or emits the cell's deterministic lowest-window
	// error, then does the same for each of its followers under the
	// follower's own identity. Failed cells are never recorded.
	finish := func(cl *cell) {
		if cl.remaining.Add(-1) != 0 {
			return
		}
		spec := &specs[cl.point]
		if err := cl.firstErr(); err != nil {
			emit(PointUpdate{
				Point: cl.point, Trace: cl.traceIdx,
				Label: spec.Label, TraceName: cl.name,
				Windows: len(cl.windows), Err: err,
			})
			for _, f := range cl.followers {
				ce := *asCellError(err)
				ce.Label, ce.Point, ce.Trace = specs[f.point].Label, f.point, f.traceIdx
				emit(PointUpdate{
					Point: f.point, Trace: f.traceIdx,
					Label: ce.Label, TraceName: f.name,
					Windows: len(cl.windows), Err: &ce,
				})
			}
			return
		}
		res := core.MergeWindowResults(cl.name, cl.results)
		r.memo.put(cl.key, len(cl.windows), res)
		if jnl != nil {
			e := &journal.Entry{Key: cl.key, Windows: len(cl.windows), Result: res}
			if f := r.Faults.takeJournal(spec.Label, cl.name); f != nil {
				_ = jnl.PutTruncated(e, -1)
			} else {
				// A failed write is not a cell failure: the journal is a
				// cache, and losing an entry only costs re-simulation.
				_ = jnl.Put(e)
			}
		}
		emit(PointUpdate{
			Point: cl.point, Trace: cl.traceIdx,
			Label: spec.Label, TraceName: cl.name,
			Windows: len(cl.windows), Result: res,
		})
		for _, f := range cl.followers {
			e := r.record(jnl, specs[f.point].Cfg, f.key, len(cl.windows), res)
			emit(PointUpdate{
				Point: f.point, Trace: f.traceIdx,
				Label: specs[f.point].Label, TraceName: f.name,
				Windows: e.Windows, Result: e.Result,
				Replayed: true,
			})
		}
	}

	err := r.forEach(ctx, workers, len(jobs), func(worker, j int) error {
		jr := jobs[j]
		cl := jr.cell
		err := r.runWindowAttempts(ctx, &specs[cl.point], &cores[worker], cl, jr.win)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			cl.errs[jr.win] = err
			if !r.AllowPartial {
				// Strict mode: fail fast. The pool cancels outstanding
				// work and surfaces the lowest-index failure; the failing
				// cell's countdown never completes, so it cannot also emit.
				return err
			}
		}
		finish(cl)
		return nil
	})
	if err != nil {
		u := PointUpdate{Point: -1, Trace: -1, Err: err}
		var ce *CellError
		if errors.As(err, &ce) {
			u.Label, u.TraceName, u.Windows = ce.Label, ce.TraceName, ce.Windows
		}
		emit(u)
	}
}

// replay looks a cell up under its requested key, then under its
// canonical key, and returns the recorded entry for the requested key or
// nil. A canonical hit is recorded under the requested key (record), so
// the memo and the journal stay complete for resumes and for workers
// sharing its directory.
func (r *Runner) replay(jnl *journal.Journal, cfg core.Config, key, canonKey string) *journal.Entry {
	if e := r.lookup(jnl, key); e != nil || canonKey == key {
		return e
	}
	e := r.lookup(jnl, canonKey)
	if e == nil {
		return nil
	}
	return r.record(jnl, cfg, key, e.Windows, e.Result)
}

// record stores res, simulated for an equivalent config, as the result of
// the cfg cell at key (Follow), in the memo and, when one is open, the
// journal.
func (r *Runner) record(jnl *journal.Journal, cfg core.Config, key string, windows int, res *core.Result) *journal.Entry {
	e := Follow(cfg, key, windows, res)
	r.memo.put(key, windows, e.Result)
	if jnl != nil {
		_ = jnl.Put(e) // a cache write: losing it only costs re-simulation
	}
	return e
}

// Follow returns the journal entry that records res, the Result of a cell
// with the same canonical identity, as the result of the cfg cell at key:
// a by-value copy whose Plan is re-derived from cfg, the only field in
// which equivalent configs' Results differ. The runner's followers and
// canonical hits get their Results through it, and so do the sweep
// daemon's.
func Follow(cfg core.Config, key string, windows int, res *core.Result) *journal.Entry {
	own := *res
	// An equivalent cell simulated successfully, so cfg is valid and its
	// plan derives without error.
	own.Plan, _ = core.AppliedPlan(cfg)
	return &journal.Entry{Key: key, Windows: windows, Result: &own}
}

// lookup finds key in the journal (when one is open), then in the
// runner's memo, and returns the recorded entry or nil. A memo hit the
// journal lacks is written through.
func (r *Runner) lookup(jnl *journal.Journal, key string) *journal.Entry {
	if jnl != nil {
		if e, hit := jnl.Get(key); hit {
			return e
		}
	}
	e, hit := r.memo.get(key)
	if !hit {
		return nil
	}
	if jnl != nil {
		_ = jnl.Put(e) // a cache write: losing it only costs re-simulation
	}
	return e
}

// workerCore is one worker's cached simulator, reused across consecutive
// jobs of the same operating point.
type workerCore struct {
	point int
	c     *core.Core
}

// invalidate drops the cached core. Called after any window failure: a
// panic or abort can leave the core mid-run, and the engine's
// fresh-equals-Reset guarantee makes dropping always safe.
func (wc *workerCore) invalidate() {
	wc.point, wc.c = -1, nil
}

// runWindowAttempts executes one window with the runner's bounded-retry
// policy: transient failures (timeouts, injected transients) retry up to
// r.Retries times with exponential backoff, re-arming the cell's
// wall-clock budget per attempt; permanent failures and exhausted retries
// return a *CellError carrying the cell identity, attempt count and — for
// panics — the recovered stack. Context cancellation returns the context's
// error unwrapped.
func (r *Runner) runWindowAttempts(ctx context.Context, spec *PointSpec, wc *workerCore, cl *cell, win int) error {
	for attempt := 1; ; attempt++ {
		err := r.runWindowOnce(ctx, spec, wc, cl, win)
		if err == nil {
			return nil
		}
		wc.invalidate()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		if attempt <= r.Retries && IsTransient(err) {
			if r.RetryBackoff > 0 {
				t := time.NewTimer(jitteredBackoff(r.RetryBackoff, attempt))
				select {
				case <-ctx.Done():
					t.Stop()
					return ctx.Err()
				case <-t.C:
				}
			}
			// Re-arm the cell's budget: without this a retried timeout
			// would expire instantly. Sibling windows of the same cell
			// share the stamp, so their budgets extend too — conservative
			// in the right direction for a guard rail.
			cl.startedNanos.Store(time.Now().UnixNano())
			continue
		}
		ce := &CellError{
			Label: spec.Label, TraceName: cl.name,
			Point: cl.point, Trace: cl.traceIdx,
			Window: win, Windows: len(cl.windows),
			Attempts: attempt, Err: err,
		}
		var pe *panicError
		if errors.As(err, &pe) {
			ce.Panicked = true
			ce.Stack = pe.stack
		}
		return ce
	}
}

// jitteredBackoff is the sleep before retry number `attempt`: exponential
// in the attempt count, then jittered uniformly into [base/2, base]. The
// jitter is what stops retries from synchronizing: when a died worker's
// cells are reassigned in a batch (the sweep service's lease reclamation
// does exactly that), unjittered backoff would march every replacement
// into the journal and scheduler in lockstep.
func jitteredBackoff(backoff time.Duration, attempt int) time.Duration {
	base := backoff << (attempt - 1)
	if base <= 1 {
		return base
	}
	half := base / 2
	return half + rand.N(base-half+1)
}

// JitteredBackoff exposes the retry sleep policy — exponential in the
// 1-based attempt number, jittered into [base/2, base] — for the other
// layers that retry over unreliable transports (the sweep service's
// worker↔daemon calls), so every backoff in the system herds the same
// way.
func JitteredBackoff(backoff time.Duration, attempt int) time.Duration {
	return jitteredBackoff(backoff, attempt)
}

// runWindowOnce executes one window attempt in isolation: a panic anywhere
// inside the engine is recovered into a *panicError instead of unwinding
// the worker goroutine, so one bad cell can never kill the sweep.
func (r *Runner) runWindowOnce(ctx context.Context, spec *PointSpec, wc *workerCore, cl *cell, winIdx int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{value: v, stack: debug.Stack()}
		}
	}()

	// Fault injection (test/dev only): deterministic panics, delays,
	// transient and permanent errors, process death — inside the recover
	// scope, so injected panics exercise the real isolation path.
	if f := r.Faults.takeWindow(spec.Label, cl.name, winIdx); f != nil {
		if ierr := f.apply(spec.Label, cl.name, winIdx); ierr != nil {
			return ierr
		}
	}

	win := &cl.windows[winIdx]
	if wc.point == cl.point && wc.c != nil {
		if err := wc.c.Reset(); err != nil {
			return fmt.Errorf("%s: reset: %w", spec.Label, err)
		}
	} else {
		c, err := core.New(spec.Cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Label, err)
		}
		wc.point, wc.c = cl.point, c
	}

	// Preemption: context cancellation and the per-point wall-clock
	// budget are polled from inside the core's run loop, so even a
	// single enormous window aborts promptly. The budget clock starts
	// at the cell's first claimed window.
	if r.PointTimeout > 0 {
		cl.startedNanos.CompareAndSwap(0, time.Now().UnixNano())
	}
	wc.c.SetStopCheck(func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.PointTimeout > 0 {
			elapsed := time.Duration(time.Now().UnixNano() - cl.startedNanos.Load())
			if elapsed > r.PointTimeout {
				return &TimeoutError{Label: spec.Label, TraceName: cl.name, Budget: r.PointTimeout}
			}
		}
		return nil
	})
	defer wc.c.SetStopCheck(nil)

	var res *core.Result
	if len(cl.windows) == 1 {
		// Unsharded cell: the exact batch methodology — one untimed
		// warm-up pass, one measured pass.
		if _, err = wc.c.Run(win.Trace); err != nil {
			return fmt.Errorf("%s: warmup %s: %w", spec.Label, win.Trace.Name, err)
		}
		if res, err = wc.c.Run(win.Trace); err != nil {
			return fmt.Errorf("%s: measure %s: %w", spec.Label, win.Trace.Name, err)
		}
	} else if st := r.checkpoints(); st != nil && cl.warmKey != "" &&
		win.Warm > 0 && win.Start == win.Warm {
		// Sample window with a checkpointable warm prefix: the prefix
		// starts at the parent trace's first instruction (Start == Warm,
		// which full-history warm-up guarantees for every window), so its
		// boundaries are the checkpoint store's — restore the deepest
		// snapshot, replay only the residual tail, then measure. Identical
		// results to the live branch below, cheaper warm-up.
		if err = st.WarmTo(wc.c, cl.traceHash, cl.warmKey, cl.winInsts, win.Trace, win.Warm); err != nil {
			return fmt.Errorf("%s: window %s: %w", spec.Label, win.Trace.Name, err)
		}
		if res, err = wc.c.RunWarmed(win.Trace, win.Warm); err != nil {
			return fmt.Errorf("%s: window %s: %w", spec.Label, win.Trace.Name, err)
		}
	} else {
		// Sample window: the warm-up prefix replays functionally,
		// unmeasured, and statistics cover only the window's span.
		if res, err = wc.c.RunWindow(win.Trace, win.Warm); err != nil {
			return fmt.Errorf("%s: window %s: %w", spec.Label, win.Trace.Name, err)
		}
	}
	cl.results[winIdx] = res
	return nil
}

// sweepSpecs expands a (modes x levels) grid into PointSpecs in the fixed
// (mode, level) order every sweep consumer indexes by, each cell at the
// runner's configured width (pointConfig).
func (r *Runner) sweepSpecs(traces []*trace.Trace, modes []circuit.Mode, levels []circuit.Millivolts) []PointSpec {
	specs := make([]PointSpec, 0, len(modes)*len(levels))
	for _, mode := range modes {
		for _, v := range levels {
			specs = append(specs, PointSpec{
				Label:  SweepLabel(v, mode),
				Cfg:    r.pointConfig(v, mode),
				Traces: traces,
			})
		}
	}
	return specs
}

// StreamGrid is Stream over the (modes x levels) sweep grid: point p is
// (modes[p/len(levels)], levels[p%len(levels)]) over every trace, the
// order FoldLevels reads and the sweep daemon indexes cells in.
func (r *Runner) StreamGrid(ctx context.Context, traces []*trace.Trace, modes []circuit.Mode, levels []circuit.Millivolts) <-chan PointUpdate {
	return r.Stream(ctx, r.sweepSpecs(traces, modes, levels))
}

// StreamLevels runs the (modes x levels) grid and collects it voltage by
// voltage: FoldLevels over StreamGrid.
func (r *Runner) StreamLevels(ctx context.Context, traces []*trace.Trace, modes []circuit.Mode, levels []circuit.Millivolts, onLevel func(circuit.Millivolts, map[circuit.Mode]*Point, map[circuit.Mode]*CellError) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return FoldLevels(ctx, cancel, r.StreamGrid(ctx, traces, modes, levels), len(traces), modes, levels, onLevel)
}

// FoldLevels is the one fold of a sweep grid's cells into levels: it
// reads updates in StreamGrid's point order, traces cells per point, from
// a local Runner.StreamGrid or a daemon's service.Client.Stream alike.
// onLevel gets each voltage in level order, as soon as every mode at that
// level has all its cells, with the level's points keyed by mode; a
// point's traces merge in trace order, so every Point is bit-identical
// whatever order its cells arrived in. A point with failed cells (partial
// streams only) arrives in fails instead, as its lowest-trace-index
// *CellError. FoldLevels returns the terminal update's error, or an
// onLevel error after calling stop, which must cancel the stream. It
// always drains updates; a stream cut short by ctx returns ctx's error.
func FoldLevels(ctx context.Context, stop context.CancelFunc, updates <-chan PointUpdate, traces int, modes []circuit.Mode, levels []circuit.Millivolts, onLevel func(circuit.Millivolts, map[circuit.Mode]*Point, map[circuit.Mode]*CellError) error) error {
	type point struct {
		results []*core.Result
		errs    []error
		left    int // cells still to arrive
	}
	pts := make([]point, len(modes)*len(levels))
	for i := range pts {
		pts[i] = point{results: make([]*core.Result, traces), errs: make([]error, traces), left: traces}
	}
	ready := func(l int) bool {
		for m := range modes {
			if pts[m*len(levels)+l].left > 0 {
				return false
			}
		}
		return true
	}
	next := 0 // first level not yet handed to onLevel
	var firstErr error
	for u := range updates {
		if firstErr != nil {
			continue // already failing: drain without emitting
		}
		if u.Point < 0 {
			firstErr = u.Err
			continue
		}
		p := &pts[u.Point]
		if u.Err != nil {
			p.errs[u.Trace] = u.Err
		} else {
			p.results[u.Trace] = u.Result
		}
		p.left--
		// A slower earlier level gates emission order.
		for ; next < len(levels) && ready(next); next++ {
			v := levels[next]
			row := make(map[circuit.Mode]*Point, len(modes))
			fails := make(map[circuit.Mode]*CellError)
			for mi, m := range modes {
				p := &pts[mi*len(levels)+next]
				if i := slices.IndexFunc(p.errs, func(err error) bool { return err != nil }); i >= 0 {
					fails[m] = asCellError(p.errs[i])
				} else {
					row[m] = &Point{Vcc: v, Mode: m, Agg: core.MergeResults(p.results)}
				}
			}
			if err := onLevel(v, row, fails); err != nil {
				firstErr = err
				stop() // stop producing; keep draining
				break
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// asCellError coerces err into a *CellError, wrapping foreign errors so
// consumers always get cell identity fields (possibly zero).
func asCellError(err error) *CellError {
	var ce *CellError
	if errors.As(err, &ce) {
		return ce
	}
	return &CellError{Point: -1, Trace: -1, Err: err}
}
