package service

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/sim"
)

// SchedulerOpts configures a Scheduler. The zero value is usable: defaults
// fill in at New.
type SchedulerOpts struct {
	// JournalDir roots the shared result journal (required). The scheduler
	// claims the directory's exclusive-writer LOCK for the daemon's
	// lifetime.
	JournalDir string

	// LeaseTTL bounds how long a worker may hold a cell without
	// heartbeating before the cell is reclaimed (default 30s). It is the
	// worst-case latency a crashed worker adds to its cells.
	LeaseTTL time.Duration

	// MaxQueuedCells bounds pending+leased cells across all sweeps
	// (default 4096). Submissions that would exceed it fail with
	// BusyError — backpressure instead of unbounded memory.
	MaxQueuedCells int

	// MaxAttempts bounds executions per cell, counting lease reclamations
	// (default 5). A cell that exhausts it is declared failed so a poison
	// cell cannot wedge the sweep.
	MaxAttempts int

	// SweepDeadline, when positive, bounds each sweep's wall clock; the
	// janitor fails overdue sweeps' remaining cells. 0 = no deadline.
	SweepDeadline time.Duration

	// JournalSync selects fsync-on-Put for the daemon's journal handle and
	// for workers (propagated through leases).
	JournalSync bool

	// JournalBudget, when positive, caps the daemon journal's disk usage
	// in bytes: least-recently-used entries are evicted to stay under it.
	// Cells with live leases are pinned and never evicted. 0 = unbounded.
	JournalBudget int64

	// SubmitRate, when positive, throttles SubmitAs per client to this
	// many sweeps per second (token bucket, burst SubmitBurst). Clients
	// over their rate get QuotaError. 0 = no rate limit.
	SubmitRate float64

	// SubmitBurst is the token bucket's capacity (default 2 when
	// SubmitRate is set): how many sweeps a quiet client may submit
	// back-to-back before the rate applies.
	SubmitBurst int

	// MaxCellsPerSweep, when positive, rejects any single sweep that
	// expands to more cells than this with QuotaError — one tenant cannot
	// monopolize the queue with a single giant submission. 0 = unlimited.
	MaxCellsPerSweep int
}

func (o SchedulerOpts) withDefaults() SchedulerOpts {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.MaxQueuedCells <= 0 {
		o.MaxQueuedCells = 4096
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.SubmitBurst <= 0 {
		o.SubmitBurst = 2
	}
	return o
}

// cell lifecycle within a sweepJob. A following cell waits on the leader
// of its canonical group instead of being leased (see canonGroup).
const (
	cellPending = iota
	cellLeased
	cellFollowing
	cellDone
	cellFailed
)

type sweepJob struct {
	id       string
	spec     sim.SweepSpec
	cells    []Cell
	canon    []string // each cell's canonical key (sim.CellKeys.Canon)
	state    []int
	attempts []int
	started  time.Time

	done, failed, replayed int
	terminalState          string // "" while running

	events  []CellEvent
	subs    map[int]chan CellEvent
	nextSub int
}

func (job *sweepJob) total() int     { return len(job.cells) }
func (job *sweepJob) finished() bool { return job.done+job.failed == job.total() }

// cellRef locates one cell of a sweep.
type cellRef struct {
	job   *sweepJob
	index int
}

// canonGroup is the live cells of every sweep that share one canonical
// key: cells the engine cannot tell apart. Only the leader, pending or
// leased, is ever leased. When it completes, each follower completes as a
// replay of its result; when it ends without one, the lead passes to the
// first follower in a live sweep.
type canonGroup struct {
	leader    cellRef
	followers []cellRef
}

type leaseState struct {
	id     string
	sweep  string
	index  int
	worker string
	expiry time.Time
}

// tokenBucket is one client's submission-rate state (SubmitRate/SubmitBurst).
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// completedRing bounds the Complete-dedup memory: how many recently
// completed lease IDs the scheduler remembers to absorb retried Completes.
// Far larger than any plausible retry window at normal lease churn.
const completedRing = 4096

// Scheduler owns the sweep queue and the lease table. It is safe for
// concurrent use; all methods may be called from HTTP handlers and worker
// goroutines simultaneously. The scheduler itself never simulates — it
// only hands out leases and reads completed results back from the journal.
//
// Cells are keyed twice: by journal key, under which results are recorded,
// and by canonical key, which cells the engine cannot tell apart share
// (sim.CellKeys). A cell whose canonical key has a pending or leased cell
// in any live sweep follows that leader instead of being leased, and
// completes with a copy of its result (sim.Follow), journaled under the
// follower's own key.
type Scheduler struct {
	opts SchedulerOpts
	jnl  *journal.Journal
	lock *journal.Lock
	now  func() time.Time // test hook

	mu        sync.Mutex
	idle      *sync.Cond // broadcast when leases/journalIO drain or state changes
	sweeps    map[string]*sweepJob
	order     []string               // submission order; scheduling scans it FIFO
	groups    map[string]*canonGroup // live canonical groups by canonical key
	leases    map[string]*leaseState
	journalIO int // Submits and Completes doing journal IO off the lock
	queued    int // pending + leased + following cells across all sweeps
	draining  bool
	closed    bool
	sweepSeq  int // sweep IDs: sweep-1, sweep-2, ...
	leaseSeq  int // lease IDs: lease-1, lease-2, ...

	// Complete-dedup: lease IDs whose completion was already recorded.
	// A retried Complete (dropped response, duplicated request) finds its
	// lease gone but its ID here, and returns success instead of
	// ErrLeaseLost — the lease ID is the request's idempotency token.
	completed      map[string]struct{}
	completedOrder []string // FIFO eviction ring for completed

	// Per-client submission token buckets (SubmitRate).
	buckets map[string]*tokenBucket

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewScheduler claims the journal directory's exclusive-writer lock and
// starts the lease janitor. The returned warning is non-empty when a stale
// lock from a dead daemon was reclaimed; surface it to the operator.
func NewScheduler(opts SchedulerOpts) (*Scheduler, string, error) {
	opts = opts.withDefaults()
	if opts.JournalDir == "" {
		return nil, "", fmt.Errorf("service: scheduler requires a journal directory")
	}
	lock, warn, err := journal.AcquireLock(opts.JournalDir)
	if err != nil {
		return nil, "", err
	}
	jnl, err := journal.Open(opts.JournalDir)
	if err != nil {
		lock.Release()
		return nil, warn, err
	}
	jnl.SetSync(opts.JournalSync)
	if opts.JournalBudget > 0 {
		jnl.SetBudget(opts.JournalBudget)
	}
	s := &Scheduler{
		opts:        opts,
		jnl:         jnl,
		lock:        lock,
		now:         time.Now,
		sweeps:      make(map[string]*sweepJob),
		groups:      make(map[string]*canonGroup),
		leases:      make(map[string]*leaseState),
		completed:   make(map[string]struct{}),
		buckets:     make(map[string]*tokenBucket),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	go s.janitor()
	return s, warn, nil
}

// Journal exposes the scheduler's journal handle (status endpoints, drain
// verification).
func (s *Scheduler) Journal() *journal.Journal { return s.jnl }

// expandSpec builds the sweep's cell grid in the canonical (mode, level,
// trace) order and derives every cell's journal key and canonical key
// through one sim.Keyer, which hashes each trace once. Pure function of the
// spec — called outside the scheduler lock (trace materialization and
// config hashing are the expensive parts).
func expandSpec(id string, spec sim.SweepSpec) ([]Cell, []string, error) {
	modes, err := spec.CircuitModes()
	if err != nil {
		return nil, nil, err
	}
	traces := spec.Traces()
	keyer := spec.NewRunner().NewKeyer()
	var cells []Cell
	var canon []string
	for mi, mode := range modes {
		for _, v := range spec.Levels() {
			cfg := spec.PointConfig(v, mode)
			label := sim.SweepLabel(v, mode)
			for ti, tr := range traces {
				keys, err := keyer.Keys(cfg, tr)
				if err != nil {
					return nil, nil, fmt.Errorf("service: keying %s %s: %w", label, tr.Name, err)
				}
				cells = append(cells, Cell{
					Sweep:     id,
					Index:     len(cells),
					Label:     label,
					Mode:      spec.Modes[mi],
					VccMV:     int(v),
					TraceIdx:  ti,
					TraceName: tr.Name,
					Key:       keys.Key,
					Spec:      spec,
				})
				canon = append(canon, keys.Canon)
			}
		}
	}
	if len(cells) == 0 {
		return nil, nil, fmt.Errorf("service: spec expands to zero cells")
	}
	return cells, canon, nil
}

// Submit validates and enqueues a sweep, returning its ID. Cells whose
// results are already journaled, under their own or their canonical key,
// complete instantly as replays — a restarted campaign only pays for the
// missing cells. A cell whose canonical key a live cell already holds
// follows it (see Scheduler). Fails fast with
// BusyError when the queue cannot absorb the new cells and ErrDraining
// during shutdown. Submit bypasses per-client admission control; remote
// submissions go through SubmitAs.
func (s *Scheduler) Submit(spec sim.SweepSpec) (string, error) {
	return s.submit("", spec)
}

// SubmitAs is Submit under per-client admission control: the client's
// token bucket (SubmitRate/SubmitBurst) and the per-sweep cell limit
// (MaxCellsPerSweep) apply, rejecting with QuotaError. The client ID is
// whatever the transport trusts — the HTTP layer uses the X-Client-ID
// header, falling back to the peer address.
func (s *Scheduler) SubmitAs(client string, spec sim.SweepSpec) (string, error) {
	return s.submit(client, spec)
}

func (s *Scheduler) submit(client string, spec sim.SweepSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}

	// Cheap pre-checks so a doomed submission skips the expensive expansion.
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return "", ErrDraining
	}
	if client != "" && s.opts.SubmitRate > 0 {
		if !s.takeTokenLocked(client) {
			s.mu.Unlock()
			return "", &QuotaError{
				Client:     client,
				Reason:     fmt.Sprintf("submission rate %.3g/s exceeded", s.opts.SubmitRate),
				RetryAfter: time.Duration(float64(time.Second) / s.opts.SubmitRate),
			}
		}
	}
	s.sweepSeq++
	id := fmt.Sprintf("sweep-%d", s.sweepSeq)
	s.mu.Unlock()

	cells, canon, err := expandSpec(id, spec)
	if err != nil {
		return "", err
	}
	if max := s.opts.MaxCellsPerSweep; max > 0 && len(cells) > max {
		return "", &QuotaError{
			Client:     client,
			Reason:     fmt.Sprintf("sweep expands to %d cells, per-sweep limit is %d", len(cells), max),
			RetryAfter: s.retryAfterLocked(), // reads only immutable opts
		}
	}

	// Replay scan outside the lock: journal reads and canonical write-backs
	// are file IO, which Drain waits for. Entries found here are trusted —
	// Get already ran the integrity check — and their cells complete at
	// registration without ever being queued.
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return "", ErrDraining
	}
	s.journalIO++
	s.mu.Unlock()
	type replay struct {
		index int
		res   *core.Result
	}
	var replays []replay
	for i, c := range cells {
		if res := s.replayCell(c, canon[i]); res != nil {
			replays = append(replays, replay{i, res})
		}
	}

	s.mu.Lock()
	defer func() {
		s.journalIO--
		s.idle.Broadcast()
		s.mu.Unlock()
	}()
	if s.draining || s.closed {
		return "", ErrDraining
	}
	fresh := len(cells) - len(replays)
	if s.queued+fresh > s.opts.MaxQueuedCells {
		return "", &BusyError{
			RetryAfter: s.retryAfterLocked(),
			Queued:     s.queued,
			Limit:      s.opts.MaxQueuedCells,
		}
	}

	job := &sweepJob{
		id:       id,
		spec:     spec,
		cells:    cells,
		canon:    canon,
		state:    make([]int, len(cells)),
		attempts: make([]int, len(cells)),
		started:  s.now(),
		subs:     make(map[int]chan CellEvent),
	}
	s.sweeps[id] = job
	s.order = append(s.order, id)
	s.queued += fresh

	for _, r := range replays {
		job.state[r.index] = cellDone
		job.done++
		job.replayed++
		s.emitLocked(job, s.cellEvent(job, r.index, r.res, true, "journal", ""))
	}
	for i, st := range job.state {
		if st == cellPending {
			s.joinGroupLocked(job, i)
		}
	}
	s.maybeFinishLocked(job)
	return id, nil
}

// replayCell looks cell c up in the journal under its own key, then under
// its canonical key, and returns its recorded Result or nil. A canonical
// hit is written back under c's own key (sim.Follow), so later scans and
// resumes hit it directly.
func (s *Scheduler) replayCell(c Cell, canon string) *core.Result {
	if ent, ok := s.jnl.Get(c.Key); ok {
		return ent.Result
	}
	if canon == c.Key {
		return nil
	}
	ent, ok := s.jnl.Get(canon)
	if !ok {
		return nil
	}
	return s.recordAs(c, ent).Result
}

// recordAs returns the entry recording ent, the result of a cell with c's
// canonical key, as c's own (sim.Follow), and journals it under c's key
// unless ent already sits there.
func (s *Scheduler) recordAs(c Cell, ent *journal.Entry) *journal.Entry {
	// The spec passed validation at submit, so the config derives.
	cfg, _ := c.config()
	e := sim.Follow(cfg, c.Key, ent.Windows, ent.Result)
	if c.Key != ent.Key {
		_ = s.jnl.Put(e) // a cache write: losing it only costs another lookup
	}
	return e
}

// joinGroupLocked files a fresh cell under its canonical key: it leads a
// new group, pending, or follows the live group's leader.
func (s *Scheduler) joinGroupLocked(job *sweepJob, i int) {
	key := job.canon[i]
	if g := s.groups[key]; g != nil {
		job.state[i] = cellFollowing
		g.followers = append(g.followers, cellRef{job, i})
		return
	}
	s.groups[key] = &canonGroup{leader: cellRef{job, i}}
}

// leaveGroupLocked removes a cell that ends without a result (out of
// attempts, or its sweep ended) from its canonical group. A leader hands
// the lead to its first follower in a live sweep, which turns pending and
// is leased in its place; the others follow the new leader.
func (s *Scheduler) leaveGroupLocked(job *sweepJob, i int) {
	key := job.canon[i]
	g := s.groups[key]
	if g == nil {
		return
	}
	ref := cellRef{job, i}
	if g.leader != ref {
		g.followers = slices.DeleteFunc(g.followers, func(f cellRef) bool { return f == ref })
		return
	}
	for len(g.followers) > 0 {
		next := g.followers[0]
		g.followers = g.followers[1:]
		if next.job.terminalState == "" {
			g.leader = next
			next.job.state[next.index] = cellPending
			return
		}
	}
	delete(s.groups, key)
}

// takeFollowersLocked ends the canonical group a completed cell led and
// returns its followers, which complete with the leader's result.
func (s *Scheduler) takeFollowersLocked(job *sweepJob, i int) []cellRef {
	key := job.canon[i]
	g := s.groups[key]
	if g == nil || g.leader != (cellRef{job, i}) {
		return nil
	}
	delete(s.groups, key)
	return g.followers
}

// takeTokenLocked draws one submission token from client's bucket,
// refilling at SubmitRate up to SubmitBurst. Buckets for clients idle
// long enough to refill fully are pruned when the map grows large.
func (s *Scheduler) takeTokenLocked(client string) bool {
	now := s.now()
	b, ok := s.buckets[client]
	if !ok {
		if len(s.buckets) > 8192 {
			full := float64(s.opts.SubmitBurst)
			for id, old := range s.buckets {
				if old.tokens+now.Sub(old.last).Seconds()*s.opts.SubmitRate >= full {
					delete(s.buckets, id)
				}
			}
		}
		b = &tokenBucket{tokens: float64(s.opts.SubmitBurst), last: now}
		s.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * s.opts.SubmitRate
	if full := float64(s.opts.SubmitBurst); b.tokens > full {
		b.tokens = full
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// retryAfterLocked estimates when queue space should free up: roughly one
// lease TTL — by then either progress was made or reclamation kicked in.
func (s *Scheduler) retryAfterLocked() time.Duration {
	d := s.opts.LeaseTTL
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Acquire leases the next pending cell to worker, FIFO across sweeps and
// index-ordered within one. Returns (nil, nil) when no work is available
// (idle or draining) — polling workers sleep and retry.
func (s *Scheduler) Acquire(worker string) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, nil
	}
	for _, id := range s.order {
		job := s.sweeps[id]
		if job.terminalState != "" {
			continue
		}
		for i, st := range job.state {
			if st != cellPending {
				continue
			}
			job.state[i] = cellLeased
			s.leaseSeq++
			ls := &leaseState{
				id:     fmt.Sprintf("lease-%d", s.leaseSeq),
				sweep:  id,
				index:  i,
				worker: worker,
				expiry: s.now().Add(s.opts.LeaseTTL),
			}
			s.leases[ls.id] = ls
			// Pin the cell's journal entry for the lease's lifetime so
			// budget eviction can never race an in-flight completion's
			// read-back. Unpinned wherever the lease is removed.
			s.jnl.Pin(job.cells[i].Key)
			return &Lease{
				ID:          ls.id,
				Cell:        job.cells[i],
				JournalDir:  s.opts.JournalDir,
				JournalSync: s.opts.JournalSync,
				TTLMS:       s.opts.LeaseTTL.Milliseconds(),
			}, nil
		}
	}
	return nil, nil
}

// Heartbeat extends a live lease by one TTL. ErrLeaseLost means the lease
// expired: the worker must abandon the cell. A heartbeat that arrives
// after the TTL but before the janitor's next pass does not revive the
// lease — it reclaims it inline, so the expiry the worker was promised is
// exact regardless of janitor cadence.
func (s *Scheduler) Heartbeat(leaseID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.leases[leaseID]
	if !ok {
		return ErrLeaseLost
	}
	if s.now().After(ls.expiry) {
		s.reclaimLocked(ls, fmt.Sprintf("lease %s expired (worker %s heartbeat arrived late)", ls.id, ls.worker))
		s.idle.Broadcast()
		return ErrLeaseLost
	}
	ls.expiry = s.now().Add(s.opts.LeaseTTL)
	return nil
}

// reclaimLocked removes an expired lease and requeues its cell (charging
// one attempt). Shared by the janitor and the late-heartbeat path.
func (s *Scheduler) reclaimLocked(ls *leaseState, reason string) {
	delete(s.leases, ls.id)
	job := s.sweeps[ls.sweep]
	s.jnl.Unpin(job.cells[ls.index].Key)
	if job.terminalState != "" {
		return
	}
	s.failAttemptLocked(job, ls.index, reason)
}

// Complete records a cell's outcome. On success the result enters the
// daemon's journal one of two ways: an in-process worker already wrote it
// there (entry nil — read it back through the integrity check), an
// external worker uploads the sealed entry bytes (entry non-nil — verify
// and admit via journal.Admit). Either way the scheduler believes only
// what the journal's content check vouches for; results never count on a
// worker's say-so, so a corrupt upload is charged as a failed attempt and
// the cell requeues.
//
// Complete is idempotent per lease: the lease ID doubles as the request's
// idempotency token, and a retried Complete whose first try was already
// recorded (dropped response, duplicated request) returns nil without
// changing anything. ErrLeaseLost means the lease was reclaimed before
// any completion arrived — only the current leaseholder counts, so
// reclamation can never double-count a cell.
func (s *Scheduler) Complete(leaseID, worker, errMsg string, entry []byte) error {
	s.mu.Lock()
	ls, ok := s.leases[leaseID]
	if !ok {
		_, dup := s.completed[leaseID]
		s.mu.Unlock()
		if dup {
			return nil
		}
		return ErrLeaseLost
	}
	delete(s.leases, leaseID)
	s.recordCompletedLocked(leaseID)
	job := s.sweeps[ls.sweep]
	cell := job.cells[ls.index]
	// journalIO keeps Drain honest while the journal IO below runs outside
	// the lock: the lease is gone but the cell isn't recorded yet, nor are
	// the followers a completed leader journals.
	s.journalIO++
	s.mu.Unlock()

	var ent *journal.Entry
	readErr := ""
	if errMsg == "" {
		if len(entry) > 0 {
			// Push-down: verify the uploaded bytes (sha256, length, key)
			// before they touch the journal.
			var err error
			if ent, err = s.jnl.Admit(cell.Key, entry); err != nil {
				readErr = fmt.Sprintf("worker %s uploaded a corrupt entry for %s: %v", worker, cell.Key, err)
			}
		} else if e, ok := s.jnl.Get(cell.Key); ok {
			ent = e
		} else {
			readErr = fmt.Sprintf("worker %s reported success but journal has no entry %s", worker, cell.Key)
		}
	}

	s.mu.Lock()
	defer func() {
		s.journalIO--
		s.idle.Broadcast()
		s.mu.Unlock()
	}()
	s.jnl.Unpin(cell.Key)
	if job.terminalState != "" {
		// The sweep ended while we were off-lock (deadline, drain). The
		// journaled result remains valid for future replays; nothing to
		// record.
		return nil
	}
	switch {
	case errMsg != "":
		s.failAttemptLocked(job, ls.index, fmt.Sprintf("worker %s: %s", worker, errMsg))
	case readErr != "":
		s.failAttemptLocked(job, ls.index, readErr)
	default:
		job.state[ls.index] = cellDone
		job.done++
		s.queued--
		s.emitLocked(job, s.cellEvent(job, ls.index, ent.Result, false, worker, ""))
		s.maybeFinishLocked(job)
		if followers := s.takeFollowersLocked(job, ls.index); len(followers) > 0 {
			s.mu.Unlock()
			entries := s.followerEntries(followers, ent)
			s.mu.Lock()
			s.completeFollowersLocked(followers, entries, worker)
		}
	}
	return nil
}

// followerEntries records the leader's entry ent as each follower's own
// (recordAs) and returns the followers' entries. It runs off the lock: a
// cell's identity never changes after submission.
func (s *Scheduler) followerEntries(followers []cellRef, ent *journal.Entry) []*journal.Entry {
	entries := make([]*journal.Entry, len(followers))
	for i, f := range followers {
		entries[i] = s.recordAs(f.job.cells[f.index], ent)
	}
	return entries
}

// completeFollowersLocked records each follower still in a live sweep as
// done, replayed from the leader that worker simulated.
func (s *Scheduler) completeFollowersLocked(followers []cellRef, entries []*journal.Entry, worker string) {
	for i, f := range followers {
		job := f.job
		if job.terminalState != "" {
			continue // ended off-lock; terminateLocked already counted it
		}
		job.state[f.index] = cellDone
		job.done++
		job.replayed++
		s.queued--
		s.emitLocked(job, s.cellEvent(job, f.index, entries[i].Result, true, worker, ""))
		s.maybeFinishLocked(job)
	}
}

// recordCompletedLocked remembers a completed lease ID for Complete
// dedup, evicting the oldest remembered ID past completedRing.
func (s *Scheduler) recordCompletedLocked(leaseID string) {
	s.completed[leaseID] = struct{}{}
	s.completedOrder = append(s.completedOrder, leaseID)
	if len(s.completedOrder) > completedRing {
		delete(s.completed, s.completedOrder[0])
		s.completedOrder = s.completedOrder[1:]
	}
}

// failAttemptLocked charges one failed attempt to a cell: requeue while
// attempts remain, otherwise declare the cell failed and emit the failure.
func (s *Scheduler) failAttemptLocked(job *sweepJob, index int, reason string) {
	job.attempts[index]++
	if job.attempts[index] >= s.opts.MaxAttempts {
		s.leaveGroupLocked(job, index)
		job.state[index] = cellFailed
		job.failed++
		s.queued--
		s.emitLocked(job, s.cellEvent(job, index, nil, false, "",
			fmt.Sprintf("%s (attempt %d/%d, giving up)", reason, job.attempts[index], s.opts.MaxAttempts)))
		s.maybeFinishLocked(job)
		return
	}
	job.state[index] = cellPending
}

// cellEvent builds the progress record for one recorded cell outcome.
func (s *Scheduler) cellEvent(job *sweepJob, index int, res *core.Result, replayed bool, worker, errMsg string) CellEvent {
	c := job.cells[index]
	return CellEvent{
		Sweep:     job.id,
		Index:     index,
		Label:     c.Label,
		Mode:      c.Mode,
		VccMV:     c.VccMV,
		TraceIdx:  c.TraceIdx,
		TraceName: c.TraceName,
		Replayed:  replayed,
		Worker:    worker,
		Result:    res,
		Err:       errMsg,
		Done:      job.done,
		Failed:    job.failed,
		Total:     job.total(),
	}
}

// maybeFinishLocked emits the terminal event and closes subscriptions once
// every cell is recorded.
func (s *Scheduler) maybeFinishLocked(job *sweepJob) {
	if job.terminalState != "" || !job.finished() {
		return
	}
	state := "done"
	if job.failed > 0 {
		state = "failed"
	}
	s.terminateLocked(job, state)
}

// terminateLocked moves the sweep to a terminal state: cells still
// pending, leased or following are abandoned and counted failed (their
// queue slots released, the lead of their canonical groups passed to
// another live sweep), the terminal event is emitted, and every subscriber
// channel closes.
func (s *Scheduler) terminateLocked(job *sweepJob, state string) {
	job.terminalState = state // first: no cell of this sweep takes a lead
	for i, st := range job.state {
		if st == cellPending || st == cellLeased || st == cellFollowing {
			s.leaveGroupLocked(job, i)
			job.state[i] = cellFailed
			job.failed++
			s.queued--
		}
	}
	s.emitLocked(job, CellEvent{
		Sweep:    job.id,
		Index:    -1,
		Done:     job.done,
		Failed:   job.failed,
		Total:    job.total(),
		Terminal: true,
		State:    state,
	})
	for id, ch := range job.subs {
		close(ch)
		delete(job.subs, id)
	}
	s.idle.Broadcast()
}

// emitLocked appends the event to the sweep's history and fans it out
// without ever blocking: a subscriber whose channel is full is
// disconnected (channel closed) instead of stalling the scheduler — the
// streaming handler detects the close and resubscribes from history.
func (s *Scheduler) emitLocked(job *sweepJob, ev CellEvent) {
	job.events = append(job.events, ev)
	for id, ch := range job.subs {
		select {
		case ch <- ev:
		default:
			close(ch)
			delete(job.subs, id)
		}
	}
}

// Subscribe returns the sweep's event history so far plus a live channel
// for what follows. The channel closes at the terminal event or when the
// subscriber falls behind (subscriberBuf undelivered events); after a lag
// close, resubscribe and resume from the returned history. cancel is
// idempotent and must be called to release the subscription.
func (s *Scheduler) Subscribe(sweepID string) ([]CellEvent, <-chan CellEvent, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.sweeps[sweepID]
	if !ok {
		return nil, nil, nil, ErrUnknownSweep
	}
	history := append([]CellEvent(nil), job.events...)
	ch := make(chan CellEvent, subscriberBuf)
	if job.terminalState != "" {
		// Already over: the full story is in history.
		close(ch)
		return history, ch, func() {}, nil
	}
	id := job.nextSub
	job.nextSub++
	job.subs[id] = ch
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if c, ok := job.subs[id]; ok {
			close(c)
			delete(job.subs, id)
		}
	}
	return history, ch, cancel, nil
}

// subscriberBuf is each subscription channel's buffer: enough to ride out
// a slow flush, small enough that an abandoned connection is detected
// quickly.
const subscriberBuf = 256

// Status summarizes one sweep.
func (s *Scheduler) Status(sweepID string) (SweepStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.sweeps[sweepID]
	if !ok {
		return SweepStatus{}, ErrUnknownSweep
	}
	state := job.terminalState
	if state == "" {
		state = "running"
	}
	return SweepStatus{
		ID:       job.id,
		State:    state,
		Done:     job.done,
		Failed:   job.failed,
		Replayed: job.replayed,
		Total:    job.total(),
	}, nil
}

// Queued reports pending, leased and following cells (readiness
// endpoints, tests).
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Draining reports whether a drain is in progress or finished.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// janitor reclaims expired leases and enforces sweep deadlines. It runs at
// a quarter of the lease TTL so a dead worker's cells requeue at most
// 1.25 TTL after its last heartbeat.
func (s *Scheduler) janitor() {
	defer close(s.janitorDone)
	interval := s.opts.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.sweepExpired()
		}
	}
}

// sweepExpired performs one janitor pass.
func (s *Scheduler) sweepExpired() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()

	// Deterministic reclamation order for the log and tests.
	var expired []string
	for id, ls := range s.leases {
		if now.After(ls.expiry) {
			expired = append(expired, id)
		}
	}
	sort.Strings(expired)
	for _, id := range expired {
		ls := s.leases[id]
		s.reclaimLocked(ls,
			fmt.Sprintf("lease %s expired (worker %s stopped heartbeating)", ls.id, ls.worker))
	}
	if len(expired) > 0 {
		s.idle.Broadcast()
	}

	if s.opts.SweepDeadline > 0 {
		for _, id := range s.order {
			job := s.sweeps[id]
			if job.terminalState == "" && now.Sub(job.started) > s.opts.SweepDeadline {
				s.terminateLocked(job, "failed")
			}
		}
	}
}

// Drain gracefully winds the scheduler down: new submissions and lease
// acquisitions stop immediately, in-flight leases run to completion (or
// expiry), and sweeps still unfinished afterwards end "interrupted" — their
// journaled cells replay on resubmission to the next daemon. Returns
// ctx.Err() if the context expires first (in-flight leases are then
// abandoned where they stand; the journal stays consistent regardless).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	// Wake the waiter when the context dies: cond waits can't select.
	watchdog := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.idle.Broadcast()
		case <-watchdog:
		}
	}()
	defer close(watchdog)

	s.mu.Lock()
	for (len(s.leases) > 0 || s.journalIO > 0) && ctx.Err() == nil {
		s.idle.Wait()
	}
	err := ctx.Err()
	for _, id := range s.order {
		if job := s.sweeps[id]; job.terminalState == "" {
			s.terminateLocked(job, "interrupted")
		}
	}
	s.mu.Unlock()
	return err
}

// Close stops the janitor, ends any still-running sweeps as interrupted,
// and releases the journal lock. Idempotent.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	for _, id := range s.order {
		if job := s.sweeps[id]; job.terminalState == "" {
			s.terminateLocked(job, "interrupted")
		}
	}
	s.mu.Unlock()

	close(s.janitorStop)
	<-s.janitorDone
	return s.lock.Release()
}
