package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"lowvcc/internal/journal"
	"lowvcc/internal/sim"
)

// CellSource is the lease protocol from a worker's point of view. Two
// implementations exist: schedSource calls the Scheduler directly
// (in-process worker slots inside the daemon) and httpSource speaks the
// /api/v1/lease endpoints (external sweepd -worker processes). The worker
// loop is identical either way, so every crash-recovery property holds for
// both flavors.
type CellSource interface {
	// Acquire leases the next cell, (nil, nil) when none is available.
	Acquire(ctx context.Context, worker string) (*Lease, error)
	// Heartbeat extends the lease; ErrLeaseLost means it was reclaimed.
	Heartbeat(ctx context.Context, leaseID string) error
	// Complete reports the cell's outcome. errMsg == "" means success.
	// entry carries the sealed journal-entry bytes for push-down workers
	// (verified daemon-side before admission); in-process workers pass nil
	// and the daemon reads its own journal. The lease ID is the request's
	// idempotency token: retrying a Complete is always safe.
	Complete(ctx context.Context, leaseID, worker, errMsg string, entry []byte) error
}

// schedSource adapts a Scheduler to CellSource for in-process workers.
type schedSource struct{ s *Scheduler }

func (ss schedSource) Acquire(_ context.Context, worker string) (*Lease, error) {
	return ss.s.Acquire(worker)
}
func (ss schedSource) Heartbeat(_ context.Context, leaseID string) error {
	return ss.s.Heartbeat(leaseID)
}
func (ss schedSource) Complete(_ context.Context, leaseID, worker, errMsg string, entry []byte) error {
	return ss.s.Complete(leaseID, worker, errMsg, entry)
}

// WorkerOpts configures a worker loop.
type WorkerOpts struct {
	// Name identifies the worker in leases and events.
	Name string

	// Poll is the sleep between empty Acquires (default 250ms for remote
	// workers; the daemon's in-process slots use a tighter loop).
	Poll time.Duration

	// CellTimeout, when positive, bounds each cell's wall clock
	// (sim.Runner.PointTimeout) — the per-cell deadline.
	CellTimeout time.Duration

	// Retries and RetryBackoff forward to the Runner's window-level
	// transient-failure retry policy.
	Retries      int
	RetryBackoff time.Duration

	// Faults forwards a fault-injection plan to the Runner (tests and the
	// crash-recovery smoke script only).
	Faults *sim.FaultPlan

	// JournalDir, when set, makes this a push-down worker: cells journal
	// into this private directory and the sealed entry bytes upload in
	// Complete, so no filesystem is shared with the daemon. When "", the
	// worker journals straight into the lease's (daemon's) directory —
	// the in-process arrangement.
	JournalDir string

	// JournalBudget and CkptBudget bound the private journal's and the
	// warm-state checkpoint store's disk usage in bytes (LRU eviction);
	// 0 = unbounded. Only meaningful with JournalDir set.
	JournalBudget int64
	CkptBudget    int64
}

func (o WorkerOpts) withDefaults() WorkerOpts {
	if o.Name == "" {
		o.Name = "worker"
	}
	if o.Poll <= 0 {
		o.Poll = 250 * time.Millisecond
	}
	return o
}

// workLoop pulls leases until the context dies. Every error path reports
// back through Complete so the scheduler learns the outcome as soon as the
// worker does, rather than waiting for lease expiry; a worker that dies
// before reporting is exactly the case lease reclamation covers.
func workLoop(ctx context.Context, src CellSource, opts WorkerOpts) {
	opts = opts.withDefaults()
	for ctx.Err() == nil {
		lease, err := src.Acquire(ctx, opts.Name)
		if err != nil || lease == nil {
			// Idle or unreachable: back off and re-poll. Acquire errors are
			// indistinguishable from a daemon restart; retrying is correct
			// either way.
			select {
			case <-ctx.Done():
			case <-time.After(opts.Poll):
			}
			continue
		}
		runLease(ctx, src, lease, opts)
	}
}

// runLease executes one leased cell under a heartbeat, then reports.
func runLease(ctx context.Context, src CellSource, lease *Lease, opts WorkerOpts) {
	// The cell runs under its own context so a lost lease cancels the
	// simulation promptly instead of wasting the slot on a cell someone
	// else now owns.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		heartbeatLoop(cctx, cancel, src, lease, opts)
	}()

	errMsg := ""
	if err := executeCell(cctx, lease, opts); err != nil {
		errMsg = err.Error()
	}
	cancel()
	hb.Wait()

	// Push-down: read the sealed entry bytes back from the private journal
	// for upload. A read failure here degrades to a nil upload — the
	// daemon charges the attempt and requeues, exactly as if we crashed.
	var entry []byte
	if errMsg == "" && opts.JournalDir != "" {
		if jnl, err := journal.Open(opts.JournalDir); err == nil {
			entry, _ = jnl.GetRaw(lease.Cell.Key)
		}
	}

	// Report on the parent context: the cell context is dead by design.
	// A lost lease makes Complete return ErrLeaseLost, which is fine — the
	// reclaimed cell is someone else's now. Transport failures retry with
	// jittered backoff: the lease ID makes retried Completes idempotent,
	// and a Complete that never lands degrades to lease expiry.
	rctx, rcancel := context.WithTimeout(context.WithoutCancel(ctx), 20*time.Second)
	defer rcancel()
	for attempt := 1; ; attempt++ {
		err := src.Complete(rctx, lease.ID, opts.Name, errMsg, entry)
		if err == nil || errors.Is(err, ErrLeaseLost) || attempt >= 3 || rctx.Err() != nil {
			return
		}
		select {
		case <-rctx.Done():
			return
		case <-time.After(sim.JitteredBackoff(200*time.Millisecond, attempt)):
		}
	}
}

// heartbeatLoop extends the lease at TTL/3 until the cell context ends.
// A definitive ErrLeaseLost — or repeated transport failures adding up to
// a TTL — cancels the cell.
func heartbeatLoop(ctx context.Context, cancel context.CancelFunc, src CellSource, lease *Lease, opts WorkerOpts) {
	interval := lease.TTL() / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			err := src.Heartbeat(ctx, lease.ID)
			switch {
			case err == nil:
				misses = 0
			case errors.Is(err, ErrLeaseLost):
				cancel()
				return
			default:
				// Transport trouble: the lease may still be live on the
				// daemon. Keep simulating until the misses alone prove the
				// lease must have expired.
				misses++
				if misses >= 4 {
					cancel()
					return
				}
			}
		}
	}
}

// executeCell regenerates the cell's inputs from its spec, verifies the
// content address matches the daemon's (catching engine-version or
// windowing drift between the two binaries), and simulates through
// Runner.RunCell so the result journals under exactly the promised key.
func executeCell(ctx context.Context, lease *Lease, opts WorkerOpts) error {
	c := lease.Cell
	cfg, err := c.config()
	if err != nil {
		return err
	}
	traces := c.Spec.Traces()
	if c.TraceIdx < 0 || c.TraceIdx >= len(traces) {
		return fmt.Errorf("cell %d: trace index %d outside suite of %d", c.Index, c.TraceIdx, len(traces))
	}
	tr := traces[c.TraceIdx]
	if tr.Name != c.TraceName {
		return fmt.Errorf("cell %d: trace %d is %q here, %q on the daemon (workload drift)", c.Index, c.TraceIdx, tr.Name, c.TraceName)
	}

	// Push-down workers journal privately (fsync off: the daemon's journal
	// is the durability boundary, this one is a scratch cache); in-process
	// workers share the daemon's directory and inherit its sync policy.
	dir, sync := lease.JournalDir, lease.JournalSync
	if opts.JournalDir != "" {
		dir, sync = opts.JournalDir, false
	}

	r := c.Spec.NewRunner()
	r.Workers = 1
	r.JournalDir, r.JournalSync = dir, sync
	r.JournalBudget, r.CkptBudget = opts.JournalBudget, opts.CkptBudget
	r.PointTimeout = opts.CellTimeout
	r.Retries, r.RetryBackoff = opts.Retries, opts.RetryBackoff
	r.Faults = opts.Faults

	// One Keyer for the check and the run: the trace hashes once.
	k := r.NewKeyer()
	keys, err := k.Keys(cfg, tr)
	if err != nil {
		return err
	}
	if keys.Key != c.Key {
		return fmt.Errorf("cell %d: key mismatch (worker %s, daemon %s): engine or windowing drift — rebuild the worker", c.Index, keys.Key, c.Key)
	}
	_, _, err = r.RunCell(ctx, k, c.Label, cfg, tr)
	return err
}

// RunWorkers starts n in-process worker slots against the scheduler and
// returns a stop function that cancels them and waits. The daemon calls
// this when configured with local simulation capacity; the slots poll
// tightly (no HTTP in the path) and are named "local/N".
func RunWorkers(ctx context.Context, s *Scheduler, n int, opts WorkerOpts) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		o := opts
		o.Name = fmt.Sprintf("local/%d", i)
		if o.Poll <= 0 {
			o.Poll = 25 * time.Millisecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			workLoop(ctx, schedSource{s}, o)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// Work runs one external worker loop against a daemon at baseURL until the
// context ends — the body of `sweepd -worker -join <addr>`. External
// workers always push results down: when opts.JournalDir is empty a
// throwaway private journal directory is created for the process's
// lifetime, so joining a daemon never requires a shared filesystem.
func Work(ctx context.Context, baseURL string, opts WorkerOpts) error {
	src, err := newHTTPSource(baseURL)
	if err != nil {
		return err
	}
	if opts.JournalDir == "" {
		dir, err := os.MkdirTemp("", "sweepd-worker-")
		if err != nil {
			return fmt.Errorf("service: worker scratch journal: %w", err)
		}
		defer os.RemoveAll(dir)
		opts.JournalDir = dir
	}
	workLoop(ctx, src, opts)
	return ctx.Err()
}
