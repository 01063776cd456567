package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"lowvcc/internal/sim"
)

// testSpec is the small grid the service tests sweep: 2 modes x 2 levels
// over the quick suite's traces — enough cells to exercise scheduling,
// milliseconds to simulate.
func testSpec() sim.SweepSpec {
	return sim.SweepSpec{
		InstsPerTrace:   2000,
		SeedsPerProfile: 1,
		Modes:           []string{"baseline", "iraw"},
		LevelsMV:        []int{500, 400},
	}
}

// singlePointSpec pins one operating point for tests that hand-drive
// leases.
func singlePointSpec() sim.SweepSpec {
	return sim.SweepSpec{
		InstsPerTrace:   2000,
		SeedsPerProfile: 1,
		Modes:           []string{"iraw"},
		LevelsMV:        []int{500},
	}
}

func cellCount(spec sim.SweepSpec) int {
	return len(spec.Modes) * len(spec.Levels()) * len(spec.Traces())
}

// journalHashes fingerprints every entry file in a journal directory.
func journalHashes(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][32]byte)
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".cell") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = sha256.Sum256(data)
	}
	return out
}

// localReferenceJournal runs the spec's grid with the plain sim runner and
// returns the journal it leaves — the ground truth every service execution
// must reproduce byte-for-byte.
func localReferenceJournal(t *testing.T, spec sim.SweepSpec) string {
	t.Helper()
	dir := t.TempDir()
	modes, err := spec.CircuitModes()
	if err != nil {
		t.Fatal(err)
	}
	r := spec.NewRunner()
	r.JournalDir, r.Workers = dir, 2
	if _, err := r.Sweep(context.Background(), spec.Traces(), modes, spec.Levels()); err != nil {
		t.Fatal(err)
	}
	return dir
}

func assertJournalsEqual(t *testing.T, wantDir, gotDir, label string) {
	t.Helper()
	want, got := journalHashes(t, wantDir), journalHashes(t, gotDir)
	if len(want) != len(got) {
		t.Fatalf("%s: journal has %d entries, reference %d", label, len(got), len(want))
	}
	for name, h := range want {
		if got[name] != h {
			t.Fatalf("%s: journal entry %s differs from the local reference", label, name)
		}
	}
}

// newTestScheduler builds a scheduler with fast test timings and closes it
// with the test.
func newTestScheduler(t *testing.T, opts SchedulerOpts) *Scheduler {
	t.Helper()
	if opts.JournalDir == "" {
		opts.JournalDir = t.TempDir()
	}
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 200 * time.Millisecond
	}
	s, warn, err := NewScheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warn != "" {
		t.Fatalf("fresh scheduler warned: %s", warn)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// waitStatus polls until the sweep reaches a terminal state.
func waitStatus(t *testing.T, s *Scheduler, id string, timeout time.Duration) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %q after %s (%d/%d done)", id, st.State, timeout, st.Done, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// completeLease simulates the leased cell exactly like a worker and
// reports it done.
func completeLease(t *testing.T, s *Scheduler, lease *Lease) {
	t.Helper()
	if err := executeCell(context.Background(), lease, WorkerOpts{}); err != nil {
		t.Fatalf("executing leased cell: %v", err)
	}
	if err := s.Complete(lease.ID, "test", "", nil); err != nil {
		t.Fatalf("completing lease: %v", err)
	}
}

// TestInProcessSweepMatchesLocal: a sweep executed by the daemon's
// in-process pool finishes, streams every cell event exactly once, and
// leaves a journal byte-identical to a plain local run.
func TestInProcessSweepMatchesLocal(t *testing.T) {
	spec := testSpec()
	ref := localReferenceJournal(t, spec)

	dir := t.TempDir()
	srv, _, err := NewServer(ServerOpts{
		SchedulerOpts: SchedulerOpts{JournalDir: dir, LeaseTTL: time.Second},
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())

	id, err := srv.Scheduler().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	history, live, cancel, err := srv.Scheduler().Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	seen := make(map[int]int)
	var terminal *CellEvent
	record := func(ev CellEvent) {
		if ev.Terminal {
			terminal = &ev
			return
		}
		seen[ev.Index]++
	}
	for _, ev := range history {
		record(ev)
	}
	timeout := time.After(30 * time.Second)
	for terminal == nil {
		select {
		case ev, ok := <-live:
			if !ok {
				t.Fatal("event channel closed before the terminal event")
			}
			record(ev)
		case <-timeout:
			t.Fatal("no terminal event after 30s")
		}
	}
	if terminal.State != "done" {
		t.Fatalf("sweep ended %q, want done", terminal.State)
	}
	total := cellCount(spec)
	if len(seen) != total {
		t.Fatalf("saw events for %d cells, want %d", len(seen), total)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d completed %d times, want exactly once", idx, n)
		}
	}
	assertJournalsEqual(t, ref, dir, "in-process sweep")
}

// TestLeaseExpiryReclaimsAndNeverDoubleCounts: a worker that stops
// heartbeating loses its cell to reclamation; its late heartbeat and
// completion get ErrLeaseLost and change nothing, and the cell completes
// exactly once under the new lease.
func TestLeaseExpiryReclaimsAndNeverDoubleCounts(t *testing.T) {
	spec := singlePointSpec()
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: 150 * time.Millisecond})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	dead, err := s.Acquire("doomed")
	if err != nil || dead == nil {
		t.Fatalf("acquire: (%v, %v)", dead, err)
	}
	if err := s.Heartbeat(dead.ID); err != nil {
		t.Fatalf("live heartbeat: %v", err)
	}

	// Stop heartbeating; the janitor must reclaim within ~1.25 TTL.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := s.Heartbeat(dead.ID); errors.Is(err, ErrLeaseLost) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease was never reclaimed")
		}
		// Only probe occasionally — each successful heartbeat extends the
		// lease, so probe slower than the TTL.
		time.Sleep(400 * time.Millisecond)
	}
	if err := s.Complete(dead.ID, "doomed", "", nil); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Complete = %v, want ErrLeaseLost", err)
	}

	// The reclaimed cell leases out again (attempt 2) and completes once.
	var second *Lease
	for time.Now().Before(deadline) {
		if second, err = s.Acquire("rescue"); err != nil {
			t.Fatal(err)
		}
		if second != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if second == nil {
		t.Fatal("reclaimed cell never became acquirable")
	}
	if second.Cell.Key != dead.Cell.Key {
		t.Fatalf("reclaim handed out a different cell: %s vs %s", second.Cell.Key, dead.Cell.Key)
	}
	completeLease(t, s, second)

	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("done = %d, want 1 (no double count)", st.Done)
	}
}

// TestSuccessWithoutJournalEntryRetries: a worker claiming success without
// having journaled the result (lost write) costs an attempt and requeues —
// the scheduler believes the journal, not the worker.
func TestSuccessWithoutJournalEntryRetries(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{})
	if _, err := s.Submit(singlePointSpec()); err != nil {
		t.Fatal(err)
	}
	lease, err := s.Acquire("liar")
	if err != nil || lease == nil {
		t.Fatalf("acquire: (%v, %v)", lease, err)
	}
	// Complete without executing: no journal entry exists.
	if err := s.Complete(lease.ID, "liar", "", nil); err != nil {
		t.Fatal(err)
	}
	again, err := s.Acquire("honest")
	if err != nil || again == nil {
		t.Fatalf("cell was not requeued after bogus success: (%v, %v)", again, err)
	}
	if again.Cell.Key != lease.Cell.Key {
		t.Fatalf("requeued a different cell")
	}
}

// TestMaxAttemptsDeclaresCellFailed: a poison cell exhausts its attempt
// budget and fails the sweep rather than wedging it; the failure event
// carries the reason.
func TestMaxAttemptsDeclaresCellFailed(t *testing.T) {
	spec := singlePointSpec()
	s := newTestScheduler(t, SchedulerOpts{MaxAttempts: 2})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := cellCount(spec)

	for attempt := 0; ; attempt++ {
		lease, err := s.Acquire("clumsy")
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			break // all cells exhausted
		}
		if err := s.Complete(lease.ID, "clumsy", "injected failure", nil); err != nil {
			t.Fatal(err)
		}
		if attempt > total*2+1 {
			t.Fatal("cells were not capped at MaxAttempts")
		}
	}
	st := waitStatus(t, s, id, 5*time.Second)
	if st.State != "failed" || st.Failed != total {
		t.Fatalf("status = %+v, want failed with %d failed cells", st, total)
	}
	history, _, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	foundReason := false
	for _, ev := range history {
		if strings.Contains(ev.Err, "injected failure") && strings.Contains(ev.Err, "giving up") {
			foundReason = true
		}
	}
	if !foundReason {
		t.Fatal("no failure event carried the exhausted-attempts reason")
	}
}

// TestBackpressureThenRecovery: a full queue rejects with BusyError and a
// positive Retry-After; after the queue drains the same submission
// succeeds — 429 is a retryable condition, not a terminal one.
func TestBackpressureThenRecovery(t *testing.T) {
	spec := testSpec()
	total := cellCount(spec)
	s := newTestScheduler(t, SchedulerOpts{MaxQueuedCells: total})
	id1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	_, err = s.Submit(singlePointSpec())
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("over-capacity submit err = %v, want *BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("BusyError.RetryAfter = %v, want positive", busy.RetryAfter)
	}

	// Drain the queue with real workers, then retry.
	stop := RunWorkers(context.Background(), s, 2, WorkerOpts{})
	waitStatus(t, s, id1, 30*time.Second)
	id2, err := s.Submit(singlePointSpec())
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	waitStatus(t, s, id2, 30*time.Second)
	stop()
}

// TestDrainFinishesInFlightAndRejectsNew: during a drain, an in-flight
// lease completes and counts, new submissions and acquisitions are
// refused, the remaining cells are abandoned ("interrupted"), and the
// journal verifies clean.
func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir, LeaseTTL: time.Second})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := s.Acquire("slowpoke")
	if err != nil || lease == nil {
		t.Fatalf("acquire: (%v, %v)", lease, err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain must refuse new work while waiting on our lease.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Submit(singlePointSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	if l, err := s.Acquire("eager"); err != nil || l != nil {
		t.Fatalf("acquire during drain = (%v, %v), want (nil, nil)", l, err)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v while a lease was still in flight", err)
	default:
	}

	completeLease(t, s, lease)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not finish after the in-flight lease completed")
	}

	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "interrupted" || st.Done != 1 {
		t.Fatalf("status after drain = %+v, want interrupted with the in-flight cell done", st)
	}
	if n, err := s.Journal().Verify(); err != nil || n != 1 {
		t.Fatalf("journal after drain: (%d, %v), want (1, nil)", n, err)
	}
}

// TestRestartResumesFromJournal: a new daemon over the same journal
// directory replays the previous daemon's completed cells instantly and
// only simulates the missing ones; the final journal is byte-identical to
// an uninterrupted local run.
func TestRestartResumesFromJournal(t *testing.T) {
	spec := testSpec()
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()

	// Daemon A: complete exactly one cell, then die (Close releases the
	// lock like a crashed daemon's reclaimed LOCK would).
	a := newTestScheduler(t, SchedulerOpts{JournalDir: dir})
	if _, err := a.Submit(spec); err != nil {
		t.Fatal(err)
	}
	lease, err := a.Acquire("a-worker")
	if err != nil || lease == nil {
		t.Fatalf("acquire: (%v, %v)", lease, err)
	}
	completeLease(t, a, lease)
	a.Close()

	// Daemon B: same journal, same spec. One replay, the rest simulated.
	b := newTestScheduler(t, SchedulerOpts{JournalDir: dir})
	id, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	stop := RunWorkers(context.Background(), b, 2, WorkerOpts{})
	defer stop()
	st := waitStatus(t, b, id, 30*time.Second)
	if st.State != "done" {
		t.Fatalf("resumed sweep ended %q", st.State)
	}
	if st.Replayed != 1 {
		t.Fatalf("resumed sweep replayed %d cells, want exactly the 1 completed by daemon A", st.Replayed)
	}
	assertJournalsEqual(t, ref, dir, "restart resume")
}

// TestSchedulerLockExclusion: two daemons must not share a journal
// directory; the second acquires the lock only after the first closes.
func TestSchedulerLockExclusion(t *testing.T) {
	dir := t.TempDir()
	a := newTestScheduler(t, SchedulerOpts{JournalDir: dir})
	if _, _, err := NewScheduler(SchedulerOpts{JournalDir: dir}); err == nil {
		t.Fatal("second scheduler acquired a held journal lock")
	}
	a.Close()
	b, _, err := NewScheduler(SchedulerOpts{JournalDir: dir})
	if err != nil {
		t.Fatalf("acquire after close: %v", err)
	}
	b.Close()
}

// TestSlowSubscriberNeverStallsScheduler: a subscriber that never reads
// must not block completion — it gets disconnected instead. The sweep
// finishes at full speed and the history still holds every event.
func TestSlowSubscriberNeverStallsScheduler(t *testing.T) {
	spec := testSpec()
	s := newTestScheduler(t, SchedulerOpts{})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe and never read a single event.
	_, _, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	stop := RunWorkers(context.Background(), s, 2, WorkerOpts{})
	defer stop()
	st := waitStatus(t, s, id, 30*time.Second)
	if st.State != "done" {
		t.Fatalf("sweep ended %q with a stuck subscriber", st.State)
	}
	history, _, c2, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	c2()
	// total cell events + 1 terminal.
	if want := cellCount(spec) + 1; len(history) != want {
		t.Fatalf("history has %d events, want %d", len(history), want)
	}
}

// TestDrainLeavesNoGoroutines: a full server lifecycle (submit, simulate,
// drain) settles back to the pre-server goroutine count — no leaked
// workers, janitors, heartbeats or subscribers.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		srv, _, err := NewServer(ServerOpts{
			SchedulerOpts: SchedulerOpts{JournalDir: t.TempDir(), LeaseTTL: time.Second},
			Workers:       2,
		})
		if err != nil {
			t.Fatal(err)
		}
		id, err := srv.Scheduler().Submit(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		// Subscribe and abandon, mid-sweep.
		_, _, cancel, err := srv.Scheduler().Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = cancel // deliberately never called: terminate must close it
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepDeadline: an overdue sweep is failed by the janitor instead of
// running forever.
func TestSweepDeadline(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{
		LeaseTTL:      100 * time.Millisecond,
		SweepDeadline: 50 * time.Millisecond,
	})
	id, err := s.Submit(singlePointSpec())
	if err != nil {
		t.Fatal(err)
	}
	// No workers ever acquire: the deadline must fire on its own.
	st := waitStatus(t, s, id, 5*time.Second)
	if st.State != "failed" {
		t.Fatalf("overdue sweep ended %q, want failed", st.State)
	}
}

// TestSweepIDsCountSweeps: sweep IDs run sweep-1, sweep-2, ... however
// many leases were granted between submissions.
func TestSweepIDsCountSweeps(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{})
	var ids []string
	for range 2 {
		id, err := s.Submit(singlePointSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if l, err := s.Acquire("w"); err != nil || l == nil {
			t.Fatalf("acquire: (%v, %v)", l, err)
		}
	}
	if ids[0] != "sweep-1" || ids[1] != "sweep-2" {
		t.Fatalf("sweep IDs %v, want [sweep-1 sweep-2]", ids)
	}
}

// TestReplayOnlySubmitIsInstantlyTerminal: submitting a spec whose cells
// are all journaled completes at submission without any worker.
func TestReplayOnlySubmitIsInstantlyTerminal(t *testing.T) {
	spec := testSpec()
	dir := localReferenceJournal(t, spec)
	// The local run left no LOCK; the scheduler claims it fresh.
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Replayed != st.Total {
		t.Fatalf("status = %+v, want done with every cell replayed", st)
	}
}
