// Package service is the sweep daemon: an HTTP/JSON control plane that
// accepts sweep specifications, decomposes them into journal-keyed cells,
// and hands the cells to workers under time-bounded leases. It turns the
// sim runner's single-process resilience layer (journaling, retries,
// partial sweeps) into a multi-process one: workers can crash, hang, or be
// kill -9'ed and the sweep still completes, bit-identical to an
// uninterrupted local run.
//
// # Cells and content addressing
//
// A submitted SweepSpec expands into one Cell per (mode, voltage, trace)
// triple, in the same fixed (mode, level, trace) order a local sweep uses.
// Each cell carries the journal content address (sim.Runner.CellKey) that
// its result must land under — a hash of the trace bytes, the full core
// configuration, the windowing plan and the engine version. That key is
// the system's idempotency token: executing a cell twice is harmless
// because both executions write the same bytes to the same address, and a
// replayed cell is indistinguishable from a fresh one.
//
// Each cell also carries a canonical key (sim.CellKeys.Canon): cells the
// engine cannot tell apart — at the model's calibration, IRAW at 600–700
// mV and Extra-Bypass at 625–700 mV next to baseline at the same voltage —
// share it. The scheduler leases one cell per canonical key at a time. A
// cell whose canonical key is already pending or leased, in its own sweep
// or another live one, follows that leader: it is never leased, and when
// the leader completes it completes as a replay with a copy of the
// leader's result, Plan re-derived from its own config (sim.Follow) and
// journaled under its own key. If the leader runs out of attempts or its
// sweep ends, one follower in a live sweep becomes the leader and is
// leased. At submission, a cell missing from the journal under its own key
// replays from its canonical key's entry the same way. Expansion keys a
// sweep through one sim.Keyer, so each trace is hashed once per submission
// (and once per lease on the worker); what remains is config hashing.
//
// Results reach the daemon one of two ways, both ending in the daemon's
// own journal through the full integrity check. In-process workers write
// the shared journal directly. External workers journal into a private
// directory and upload the sealed entry bytes in the Complete call
// (result push-down): the daemon re-derives the sha256 content address
// and cell key from the uploaded bytes before admitting them
// (journal.Admit), so a buggy or byzantine worker can corrupt nothing —
// a bad upload is rejected, charged as a failed attempt, and the cell
// requeues. No shared filesystem is required to join a fleet.
//
// # Leases, heartbeats, reclamation
//
// Workers pull cells by acquiring a Lease — exclusive, time-bounded
// (SchedulerOpts.LeaseTTL) permission to execute one cell. A live worker
// extends its lease by heartbeating at TTL/3; the scheduler's janitor
// reclaims any lease that outlives its TTL and requeues the cell, so a
// crashed, hung, partitioned or kill -9'ed worker delays its cells by at
// most one TTL. A worker that comes back from a pause after losing its
// lease gets ErrLeaseLost on the next heartbeat or completion and abandons
// the cell; only the current leaseholder's completion counts, so a cell is
// never double-counted even when an old and a new holder both finish it
// (their results are bit-identical by the keying contract anyway). Each
// reclamation increments the cell's attempt count; a cell that exhausts
// SchedulerOpts.MaxAttempts is declared failed and the sweep finishes
// partial, reporting it — a poison cell cannot wedge the service.
//
// # Failure model
//
// The faults the service tolerates by design, and what each degrades to
// (never a wrong number — at worst re-done work or a reported-failed
// cell):
//
//   - Worker crash / kill -9 mid-cell: lease expires, cell requeues,
//     another worker re-runs it. Cost: one TTL of latency. A half-written
//     journal entry is a temp file the atomic-rename protocol never
//     published.
//   - Network partition, worker side: heartbeats stop getting through;
//     after enough misses to guarantee the TTL has passed, the worker
//     cancels the cell, abandons cleanly and rejoins the poll loop. The
//     daemon reclaims the lease and requeues the cell. A worker that
//     finishes just as the partition heals completes normally — its
//     upload is verified like any other.
//   - Dropped or duplicated Complete: the lease ID doubles as the
//     request's idempotency token. Workers retry a failed Complete with
//     jittered backoff; the daemon remembers recently completed leases
//     and absorbs duplicates, so a retried Complete after a dropped
//     response can never double-count a cell. A Complete that never
//     arrives at all degrades to lease expiry (above).
//   - Corrupt upload (buggy or byzantine worker): the daemon verifies
//     the sealed bytes' sha256 content address and cell key before
//     admitting them; a bad upload is rejected, the attempt is charged,
//     and the cell requeues under MaxAttempts — the scheduler believes
//     the verified bytes, never the worker.
//   - Slow client / disconnect mid-stream: its event subscription is
//     dropped; the sweep runs on. Slow subscribers are disconnected
//     rather than ever stalling the scheduler (see Scheduler.Subscribe).
//   - Queue full: submission fails fast with BusyError (HTTP 429 +
//     Retry-After) instead of queueing unboundedly. Per-client token
//     buckets and the per-sweep cell limit (QuotaError, also 429)
//     throttle a greedy tenant without starving the rest.
//   - Disk full / store over budget: journal and checkpoint stores are
//     caches on one sealed-file directory type (journal.Dir). Write
//     failures are counted and swallowed (the cell re-runs later); under
//     -journal-budget/-ckpt-budget each store evicts least-recently-used
//     files (a journal entry or a whole snapshot), never an in-flight
//     lease's cell (pinned) — an evicted file is a future re-simulation or
//     live replay, never an error.
//   - Daemon dies: the exclusive-writer LOCK file (internal/journal) is
//     reclaimed by the next daemon after a pid+start-time liveness check
//     (a recycled pid cannot wedge it); completed cells replay from the
//     journal on resubmission, only missing cells re-simulate.
//   - Drain (SIGTERM): no new leases, no new sweeps (503), in-flight cells
//     finish and journal; still-incomplete sweeps end "interrupted".
//     Resubmitting the same spec to the next daemon replays the finished
//     cells and runs only the remainder.
//
// Two worker flavors implement the same CellSource-driven loop:
// in-process goroutine pools inside the daemon (zero-copy, shared
// journal) and external worker processes (sweepd -worker -join <addr>)
// that pull leases over HTTP, journal privately and push results down.
// Correctness never depends on the flavor or the worker count: the
// acceptance tests run the same sweep with 1, 2 and 4 workers under
// kill -9, partitions and corrupt uploads and assert identical journals.
//
// # Clients
//
// Client.Stream maps a sweep's cell events to the sim.PointUpdates a local
// sim.Runner.StreamGrid of the same grid emits, so the one level fold,
// sim.FoldLevels, renders a daemon sweep exactly as a local one: `vccsweep
// -server` and `figures -fig 11b -server` differ from their local runs
// only in where the cells come from (OpenSweep). Sweep IDs count
// submissions (sweep-1, sweep-2, ...); both commands print theirs on
// stderr.
package service

import (
	"errors"
	"fmt"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/sim"
)

// Cell is one schedulable unit of a sweep: a single (mode, voltage,
// trace) simulation, content-addressed by Key.
type Cell struct {
	// Sweep and Index identify the cell within its sweep; cells are
	// indexed in the fixed (mode, level, trace) expansion order.
	Sweep string `json:"sweep"`
	Index int    `json:"index"`

	// Label is the operating point's sweep label (sim.SweepLabel) — what
	// progress lines print and fault-injection rules match on.
	Label string `json:"label"`

	Mode      string `json:"mode"`
	VccMV     int    `json:"vcc_mv"`
	TraceIdx  int    `json:"trace_idx"`
	TraceName string `json:"trace_name"`

	// Key is the journal content address the cell's result lands under.
	// The worker recomputes it from Spec and refuses the cell on mismatch
	// (an engine-version or windowing drift between daemon and worker).
	Key string `json:"key"`

	// Spec is the submitted sweep spec; the worker regenerates the trace
	// and core configuration from it deterministically.
	Spec sim.SweepSpec `json:"spec"`
}

// config regenerates the cell's core configuration from its spec — the
// config its key was derived from.
func (c Cell) config() (core.Config, error) {
	mode, err := sim.ParseMode(c.Mode)
	if err != nil {
		return core.Config{}, err
	}
	return c.Spec.PointConfig(circuit.Millivolts(c.VccMV), mode), nil
}

// Lease is time-bounded permission to execute one cell. The holder must
// heartbeat before TTL expires or the scheduler reassigns the cell.
type Lease struct {
	ID   string `json:"id"`
	Cell Cell   `json:"cell"`

	// JournalDir is the daemon's journal directory. In-process workers
	// journal straight into it; external workers ignore it — they journal
	// into a private directory and upload the sealed entry bytes in
	// Complete instead (result push-down), so joining a daemon requires
	// no shared filesystem.
	JournalDir  string `json:"journal_dir"`
	JournalSync bool   `json:"journal_sync"`

	// TTLMS is the lease's time budget in milliseconds; heartbeat at a
	// third of it.
	TTLMS int64 `json:"ttl_ms"`
}

// TTL returns the lease's time budget.
func (l *Lease) TTL() time.Duration { return time.Duration(l.TTLMS) * time.Millisecond }

// CellEvent is one progress record of a running sweep. Terminal events
// (Terminal=true, Index=-1) carry the sweep's final state instead of a
// cell.
type CellEvent struct {
	Sweep string `json:"sweep"`
	// Index is the completed cell's index, or -1 on the terminal event.
	Index     int    `json:"index"`
	Label     string `json:"label,omitempty"`
	Mode      string `json:"mode,omitempty"`
	VccMV     int    `json:"vcc_mv,omitempty"`
	TraceIdx  int    `json:"trace_idx,omitempty"`
	TraceName string `json:"trace_name,omitempty"`

	// Replayed marks a cell completed without being leased: served from
	// the journal (under its own or its canonical key), or a canonical
	// follower completed with its leader's result.
	Replayed bool `json:"replayed,omitempty"`
	// Worker names who completed the cell (in-process slots are "local/N"):
	// "journal" for a journal replay, the leader's worker for a follower.
	Worker string `json:"worker,omitempty"`

	// Result is the cell's simulation result (nil on failure and on the
	// terminal event — aggregate results are read per-cell).
	Result *core.Result `json:"result,omitempty"`
	// Err is the cell's (or sweep's) failure, "" on success.
	Err string `json:"err,omitempty"`

	Done   int `json:"done"`
	Failed int `json:"failed,omitempty"`
	Total  int `json:"total"`

	Terminal bool `json:"terminal,omitempty"`
	// State on the terminal event: "done", "failed" or "interrupted".
	State string `json:"state,omitempty"`
}

// SweepStatus is a point-in-time summary of one sweep.
type SweepStatus struct {
	ID string `json:"id"`
	// State: "running", "done", "failed" (some cells exhausted their
	// attempts, or the sweep ran past its deadline) or "interrupted" (the
	// daemon drained mid-sweep). Failed counts the cells that exhausted
	// their attempts and those a terminated sweep abandoned. Replayed
	// counts the done cells that were never leased: journal replays and
	// canonical followers (CellEvent.Replayed).
	State    string `json:"state"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Replayed int    `json:"replayed"`
	Total    int    `json:"total"`
}

// Terminal reports whether the sweep has finished (in any state).
func (s SweepStatus) Terminal() bool { return s.State != "running" }

// BusyError reports a submission rejected by backpressure: the cell queue
// cannot absorb the sweep. Retry after RetryAfter.
type BusyError struct {
	RetryAfter time.Duration
	Queued     int
	Limit      int
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("service: queue full (%d cells queued, limit %d); retry after %s",
		e.Queued, e.Limit, e.RetryAfter)
}

// QuotaError reports a submission rejected by per-client admission
// control: the client's token bucket ran dry (submission rate) or the
// sweep exceeds the per-sweep cell limit. Like BusyError it surfaces as
// HTTP 429 + Retry-After; unlike BusyError it names the client, so one
// greedy tenant throttles only itself.
type QuotaError struct {
	Client     string
	Reason     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: client %q over quota: %s; retry after %s",
		e.Client, e.Reason, e.RetryAfter)
}

// ErrDraining rejects new work while the daemon shuts down gracefully.
var ErrDraining = errors.New("service: draining, not accepting new sweeps")

// ErrLeaseLost tells a worker its lease expired and was reassigned (or the
// lease ID never existed). The worker abandons the cell; the result it may
// already have journaled is still valid and will be replayed.
var ErrLeaseLost = errors.New("service: lease lost")

// ErrUnknownSweep reports a status or subscription request for a sweep ID
// the scheduler has never seen.
var ErrUnknownSweep = errors.New("service: unknown sweep")
