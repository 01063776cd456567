package service

import (
	"context"
	"testing"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/sim"
)

// canonSpec sweeps the given modes at 600 mV, where IRAW applies the
// baseline plan: its cells share the baseline cells' canonical keys.
func canonSpec(modes ...string) sim.SweepSpec {
	return sim.SweepSpec{
		InstsPerTrace:   2000,
		SeedsPerProfile: 1,
		Modes:           modes,
		LevelsMV:        []int{600},
	}
}

// acquireAll leases every cell the scheduler will hand out right now.
func acquireAll(t *testing.T, s *Scheduler, worker string) []*Lease {
	t.Helper()
	var leases []*Lease
	for {
		l, err := s.Acquire(worker)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			return leases
		}
		leases = append(leases, l)
	}
}

// sweepKeys returns the journal key of every cell of spec, in index order.
func sweepKeys(t *testing.T, spec sim.SweepSpec) []string {
	t.Helper()
	cells, _, err := expandSpec("keys", spec)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	return keys
}

// wantStatus fails unless the sweep's status matches.
func wantStatus(t *testing.T, s *Scheduler, id, state string, done, failed, replayed int) {
	t.Helper()
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != state || st.Done != done || st.Failed != failed || st.Replayed != replayed {
		t.Fatalf("%s: status %+v, want %s with done %d, failed %d, replayed %d", id, st, state, done, failed, replayed)
	}
}

// wantQueued fails unless Queued reports n.
func wantQueued(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	if q := s.Queued(); q != n {
		t.Fatalf("Queued() = %d, want %d", q, n)
	}
}

// irawPlan is the plan an IRAW cell at 600 mV records: the baseline clock
// plan under its own mode.
func irawPlan(t *testing.T) circuit.ClockPlan {
	t.Helper()
	plan, err := core.AppliedPlan(core.DefaultConfig(600, circuit.ModeIRAW))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != circuit.ModeIRAW {
		t.Fatalf("applied plan mode %v, want IRAW", plan.Mode)
	}
	return plan
}

// TestCanonicalFollowerNeverLeased: in a baseline+IRAW grid at 600 mV only
// the baseline cells are leased. Each IRAW cell completes as a replay of
// its leader's result with its own Plan, journaled under its own key, and
// the journal is byte-identical to a local run's.
func TestCanonicalFollowerNeverLeased(t *testing.T) {
	spec := canonSpec("baseline", "iraw")
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir, LeaseTTL: time.Minute})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := len(spec.Traces())
	wantQueued(t, s, 2*n)

	leases := acquireAll(t, s, "w")
	if len(leases) != n {
		t.Fatalf("leased %d cells, want the %d baseline cells", len(leases), n)
	}
	for _, l := range leases {
		if l.Cell.Mode != "baseline" {
			t.Fatalf("leased follower cell %d (%s)", l.Cell.Index, l.Cell.Label)
		}
		completeLease(t, s, l)
	}
	wantStatus(t, s, id, "done", 2*n, 0, n)
	wantQueued(t, s, 0)

	plan := irawPlan(t)
	history, _, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	followers := 0
	for _, ev := range history {
		if ev.Terminal || ev.Mode != "iraw" {
			continue
		}
		followers++
		if !ev.Replayed || ev.Worker != "test" || ev.Result == nil || ev.Result.Plan != plan {
			t.Fatalf("follower event %+v, want replayed by the leader's worker with the IRAW plan", ev)
		}
	}
	if followers != n {
		t.Fatalf("%d follower events, want %d", followers, n)
	}
	for _, key := range sweepKeys(t, spec)[n:] {
		ent, ok := s.Journal().Get(key)
		if !ok || ent.Result.Plan != plan {
			t.Fatalf("follower key %s: journaled %v, want its own entry with the IRAW plan", key, ok)
		}
	}
	assertJournalsEqual(t, ref, dir, "canonical followers")
}

// TestCanonicalFollowersAcrossSweeps: cells of other live sweeps follow a
// leader too — two IRAW sweeps wait on a baseline sweep's cells and lease
// nothing.
func TestCanonicalFollowersAcrossSweeps(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: time.Minute})
	base, err := s.Submit(canonSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	var iraw []string
	for range 2 {
		id, err := s.Submit(canonSpec("iraw"))
		if err != nil {
			t.Fatal(err)
		}
		iraw = append(iraw, id)
	}
	n := len(canonSpec().Traces())
	wantQueued(t, s, 3*n)

	leases := acquireAll(t, s, "w")
	if len(leases) != n {
		t.Fatalf("leased %d cells, want the %d baseline cells", len(leases), n)
	}
	for _, l := range leases {
		if l.Cell.Sweep != base {
			t.Fatalf("leased cell of follower sweep %s", l.Cell.Sweep)
		}
		completeLease(t, s, l)
	}
	wantStatus(t, s, base, "done", n, 0, 0)
	for _, id := range iraw {
		wantStatus(t, s, id, "done", n, 0, n)
	}
	wantQueued(t, s, 0)
	if got, err := s.Journal().Len(); err != nil || got != 2*n {
		t.Fatalf("journal holds (%d, %v) entries, want %d", got, err, 2*n)
	}
}

// TestSubmitCanonicalReplay: a cell missing from the journal under its own
// key replays at submission from its canonical key's entry, and is
// recorded under its own key with its own Plan.
func TestSubmitCanonicalReplay(t *testing.T) {
	dir := localReferenceJournal(t, canonSpec("baseline"))
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir})
	spec := canonSpec("iraw")
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := len(spec.Traces())
	wantStatus(t, s, id, "done", n, 0, n)
	wantQueued(t, s, 0)
	if l, err := s.Acquire("w"); err != nil || l != nil {
		t.Fatalf("acquire after a replay-only submit = (%v, %v), want nothing", l, err)
	}
	plan := irawPlan(t)
	for _, key := range sweepKeys(t, spec) {
		ent, ok := s.Journal().Get(key)
		if !ok || ent.Result.Plan != plan {
			t.Fatalf("canonical replay %s: journaled %v, want its own entry with the IRAW plan", key, ok)
		}
	}
	assertJournalsEqual(t, localReferenceJournal(t, canonSpec("baseline", "iraw")), dir, "canonical replay")
}

// TestLeaderOutOfAttemptsPromotesOneFollower: a leader that exhausts
// MaxAttempts hands its lead to exactly one follower, the first in
// submission order, which is then leased; the other follower waits on it.
func TestLeaderOutOfAttemptsPromotesOneFollower(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: time.Minute, MaxAttempts: 1})
	a, err := s.Submit(canonSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(canonSpec("iraw"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Submit(canonSpec("iraw"))
	if err != nil {
		t.Fatal(err)
	}
	n := len(canonSpec().Traces())
	leases := acquireAll(t, s, "w")
	if len(leases) != n {
		t.Fatalf("leased %d cells, want %d", len(leases), n)
	}
	if err := s.Complete(leases[0].ID, "w", "injected failure", nil); err != nil {
		t.Fatal(err)
	}
	promoted := acquireAll(t, s, "w")
	if len(promoted) != 1 || promoted[0].Cell.Sweep != b || promoted[0].Cell.Index != 0 {
		t.Fatalf("after the leader failed, leased %+v, want exactly cell 0 of %s", promoted, b)
	}
	wantQueued(t, s, 3*n-1)
	for _, l := range append(leases[1:], promoted...) {
		completeLease(t, s, l)
	}
	wantStatus(t, s, a, "failed", n-1, 1, 0)
	wantStatus(t, s, b, "done", n, 0, n-1)
	wantStatus(t, s, c, "done", n, 0, n)
	wantQueued(t, s, 0)
}

// TestDeadlinePromotesFollowerInAnotherSweep: when a leader's sweep runs
// past its deadline, the lead passes to the follower in the live sweep,
// and a completion for the dead sweep's lease records nothing.
func TestDeadlinePromotesFollowerInAnotherSweep(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: time.Hour, SweepDeadline: time.Minute})
	clock := time.Now()
	advance := func(d time.Duration) {
		s.mu.Lock()
		clock = clock.Add(d)
		s.now = func() time.Time { return clock }
		s.mu.Unlock()
	}
	advance(0)
	a, err := s.Submit(canonSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := s.Acquire("w")
	if err != nil || stale == nil {
		t.Fatalf("acquire: (%v, %v)", stale, err)
	}
	advance(30 * time.Second)
	b, err := s.Submit(canonSpec("iraw"))
	if err != nil {
		t.Fatal(err)
	}
	n := len(canonSpec().Traces())
	wantQueued(t, s, 2*n)

	advance(31 * time.Second)
	s.sweepExpired()
	// Status counts the cells a terminated sweep abandoned as failed, as
	// its terminal event does.
	wantStatus(t, s, a, "failed", 0, n, 0)
	wantQueued(t, s, n)
	leases := acquireAll(t, s, "w")
	if len(leases) != n {
		t.Fatalf("leased %d promoted cells, want %d", len(leases), n)
	}
	for _, l := range leases {
		if l.Cell.Sweep != b {
			t.Fatalf("leased a cell of %s, want only %s", l.Cell.Sweep, b)
		}
	}
	completeLease(t, s, stale)
	wantStatus(t, s, a, "failed", 0, n, 0)
	for _, l := range leases {
		completeLease(t, s, l)
	}
	wantStatus(t, s, b, "done", n, 0, 0)
	wantQueued(t, s, 0)
}

// TestDrainWaitsForFollowerWrites: Drain returns only after the followers
// of the last completed leaders are journaled and recorded.
func TestDrainWaitsForFollowerWrites(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: time.Minute})
	if _, err := s.Submit(canonSpec("baseline")); err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(canonSpec("iraw"))
	if err != nil {
		t.Fatal(err)
	}
	n := len(canonSpec().Traces())
	leases := acquireAll(t, s, "w")
	for _, l := range leases {
		if err := executeCell(context.Background(), l, WorkerOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	for _, l := range leases {
		if err := s.Complete(l.ID, "w", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	wantStatus(t, s, b, "done", n, 0, n)
	wantQueued(t, s, 0)
	if got, err := s.Journal().Verify(); err != nil || got != 2*n {
		t.Fatalf("journal after drain: (%d, %v), want (%d, nil)", got, err, 2*n)
	}
}

// TestCanonicalFollowersConcurrent: with two in-process workers and two
// live sweeps sharing canonical keys, every follower completes once, as a
// replay, and the journal matches a local run's.
func TestCanonicalFollowersConcurrent(t *testing.T) {
	spec := canonSpec("baseline", "iraw", "extrabypass")
	spec.LevelsMV = []int{650, 575}
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()
	srv, _, err := NewServer(ServerOpts{
		SchedulerOpts: SchedulerOpts{JournalDir: dir, LeaseTTL: time.Minute},
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	s := srv.Scheduler()
	a, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	follow := canonSpec("iraw")
	follow.LevelsMV = []int{650}
	b, err := s.Submit(follow)
	if err != nil {
		t.Fatal(err)
	}
	n := len(spec.Traces())
	if st := waitStatus(t, s, a, 30*time.Second); st.State != "done" || st.Replayed != 2*n {
		t.Fatalf("%s: status %+v, want done with %d followers replayed", a, st, 2*n)
	}
	if st := waitStatus(t, s, b, 30*time.Second); st.State != "done" || st.Replayed != n {
		t.Fatalf("%s: status %+v, want done with all %d cells replayed", b, st, n)
	}
	wantQueued(t, s, 0)
	assertJournalsEqual(t, ref, dir, "concurrent canonical followers")
}
