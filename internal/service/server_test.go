package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/sim"
)

// newTestDaemon stands up a full HTTP daemon over httptest and returns it
// with its base URL. Workers < 0 means external-workers-only.
func newTestDaemon(t *testing.T, opts ServerOpts) (*Server, string) {
	t.Helper()
	if opts.JournalDir == "" {
		opts.JournalDir = t.TempDir()
	}
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = time.Second
	}
	srv, warn, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warn != "" {
		t.Fatalf("fresh daemon warned: %s", warn)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Scheduler().Close()
	})
	return srv, ts.URL
}

// TestHTTPEndToEndExternalWorker: the full wire path — client submits over
// HTTP, an external worker (in-process here, but speaking only HTTP +
// shared journal dir) executes every cell, the client streams ndjson
// events to the terminal, and the journal matches a local run.
func TestHTTPEndToEndExternalWorker(t *testing.T) {
	spec := testSpec()
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()
	srv, base := newTestDaemon(t, ServerOpts{
		SchedulerOpts: SchedulerOpts{JournalDir: dir},
		Workers:       -1,
	})

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- Work(wctx, base, WorkerOpts{Name: "ext-1", Poll: 10 * time.Millisecond})
	}()

	cl, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	id, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	if st, err := cl.Status(ctx, id); err != nil || st.Total != cellCount(spec) {
		t.Fatalf("status = (%+v, %v), want %d total cells", st, err, cellCount(spec))
	}

	seen := make(map[int]int)
	term, err := cl.Events(ctx, id, func(ev CellEvent) error {
		if !ev.Terminal && ev.Err == "" {
			seen[ev.Index]++
			if ev.Worker != "ext-1" {
				t.Errorf("cell %d completed by %q, want ext-1", ev.Index, ev.Worker)
			}
			if ev.Result == nil {
				t.Errorf("cell %d event carries no result", ev.Index)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if term.State != "done" {
		t.Fatalf("sweep ended %q, want done", term.State)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d completed %d times over HTTP", idx, n)
		}
	}
	if len(seen) != cellCount(spec) {
		t.Fatalf("saw %d cells, want %d", len(seen), cellCount(spec))
	}
	assertJournalsEqual(t, ref, dir, "http external worker")

	// Health endpoints: live and ready while serving...
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}

	// ...and after a drain, live but not ready, refusing submissions.
	wcancel()
	<-workerDone
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", resp.StatusCode)
	}
	if _, err := cl.Submit(ctx, spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
}

// TestHTTPBackpressure429: an over-capacity submission comes back over the
// wire as *BusyError with the server's Retry-After.
func TestHTTPBackpressure429(t *testing.T) {
	spec := testSpec()
	_, base := newTestDaemon(t, ServerOpts{
		SchedulerOpts: SchedulerOpts{MaxQueuedCells: cellCount(spec)},
		Workers:       -1,
	})
	cl, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit(ctx, singlePointSpec())
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("over-capacity submit = %v, want *BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("Retry-After = %v, want positive", busy.RetryAfter)
	}
}

// TestClientStreamLevels: the daemon path (Client.Stream folded by
// sim.FoldLevels) emits the same levels, in the same order, with the same
// merged stats, as the local Runner.StreamLevels path. With a fault plan
// that fails two traces of one operating point on every attempt, both
// paths report that point's lowest-trace-index cell — with one or two
// workers, whatever order the daemon's failures arrive in.
func TestClientStreamLevels(t *testing.T) {
	spec := testSpec()
	modes, err := spec.CircuitModes()
	if err != nil {
		t.Fatal(err)
	}
	traces := spec.Traces()
	victim := sim.SweepLabel(400, circuit.ModeBaseline)
	// Trace 1 fails slowly (transient faults, retried with backoff until
	// the attempt gives up) and trace 2 at once, so with two workers trace
	// 2's failure reaches the client first.
	faults := func() *sim.FaultPlan {
		return sim.NewFaultPlan(
			sim.FaultRule{Label: victim, TraceName: traces[1].Name, Window: -1, Kind: sim.FaultTransient},
			sim.FaultRule{Label: victim, TraceName: traces[2].Name, Window: -1, Kind: sim.FaultError},
		)
	}

	type level struct {
		v     circuit.Millivolts
		pts   map[circuit.Mode]*sim.Point
		fails map[circuit.Mode]*sim.CellError
	}
	collect := func(stream func(func(circuit.Millivolts, map[circuit.Mode]*sim.Point, map[circuit.Mode]*sim.CellError) error) error) []level {
		t.Helper()
		var out []level
		err := stream(func(v circuit.Millivolts, pts map[circuit.Mode]*sim.Point, fails map[circuit.Mode]*sim.CellError) error {
			out = append(out, level{v, pts, fails})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	local := func(r *sim.Runner) []level {
		return collect(func(onLevel func(circuit.Millivolts, map[circuit.Mode]*sim.Point, map[circuit.Mode]*sim.CellError) error) error {
			return r.StreamLevels(context.Background(), traces, modes, spec.Levels(), onLevel)
		})
	}
	clean := local(&sim.Runner{Workers: 2})
	faulty := local(&sim.Runner{Workers: 2, Faults: faults(), AllowPartial: true})
	if ce := faulty[1].fails[circuit.ModeBaseline]; ce == nil || ce.Trace != 1 {
		t.Fatalf("local fold reported %+v for %s, want its trace-1 cell", ce, victim)
	}

	for _, c := range []struct {
		name    string
		workers int
		faults  bool
	}{{"clean", 2, false}, {"faults/workers=1", 1, true}, {"faults/workers=2", 2, true}} {
		t.Run(c.name, func(t *testing.T) {
			opts, want := ServerOpts{Workers: c.workers}, clean
			if c.faults {
				opts.Faults, opts.MaxAttempts, want = faults(), 1, faulty
				opts.Retries, opts.RetryBackoff = 3, 40*time.Millisecond
			}
			_, base := newTestDaemon(t, opts)
			cl, err := NewClient(base)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			remote := collect(func(onLevel func(circuit.Millivolts, map[circuit.Mode]*sim.Point, map[circuit.Mode]*sim.CellError) error) error {
				return cl.StreamLevels(ctx, spec, onLevel)
			})

			if len(remote) != len(want) {
				t.Fatalf("daemon path emitted %d levels, local %d", len(remote), len(want))
			}
			for i, w := range want {
				r := remote[i]
				if r.v != w.v {
					t.Fatalf("level %d: daemon emitted %v, local %v (order must match)", i, r.v, w.v)
				}
				for _, m := range modes {
					if wf, rf := w.fails[m], r.fails[m]; wf != nil || rf != nil {
						if wf == nil || rf == nil || rf.Point != wf.Point || rf.Trace != wf.Trace || rf.TraceName != wf.TraceName || rf.Label != wf.Label {
							t.Fatalf("level %v mode %v: daemon failure %+v, local %+v", w.v, m, rf, wf)
						}
						continue
					}
					lp, rp := w.pts[m], r.pts[m]
					if lp == nil || rp == nil {
						t.Fatalf("level %v mode %v missing a point (local %v, remote %v)", w.v, m, lp, rp)
					}
					if rp.Agg.Run != lp.Agg.Run || rp.Agg.Time != lp.Agg.Time || rp.Agg.Plan != lp.Agg.Plan {
						t.Fatalf("level %v mode %v: daemon aggregate differs from local", w.v, m)
					}
				}
			}
		})
	}
}

// TestClientStreamEndsShort: a sweep that ends without reporting every
// cell — here, past its deadline with no worker to run it — ends the
// client's stream with a terminal error naming the sweep, never with
// missing levels passed off as a finished sweep.
func TestClientStreamEndsShort(t *testing.T) {
	_, base := newTestDaemon(t, ServerOpts{
		SchedulerOpts: SchedulerOpts{LeaseTTL: 100 * time.Millisecond, SweepDeadline: 50 * time.Millisecond},
		Workers:       -1,
	})
	cl, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = cl.StreamLevels(ctx, testSpec(), func(v circuit.Millivolts, _ map[circuit.Mode]*sim.Point, _ map[circuit.Mode]*sim.CellError) error {
		t.Errorf("level %v emitted by a sweep that ran no cell", v)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "sweep-1") || !strings.Contains(err.Error(), "of 28 cells") {
		t.Fatalf("StreamLevels = %v, want the short sweep-1 reported", err)
	}
}

// TestSubmitRejectsUnknownFields: a submission carrying a field the spec
// does not define — a stale client's retired option such as the old
// "warm_mode" — is refused with 400 instead of silently running under
// different semantics, and nothing is queued.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	srv, base := newTestDaemon(t, ServerOpts{Workers: -1})
	for _, body := range []string{
		`{"insts_per_trace":2000,"seeds_per_profile":1,"modes":["iraw"],"levels_mv":[500],"warm_mode":"timed"}`,
		`{"insts_per_trace":2000,"seeds_per_profile":1,"modes":["iraw"],"bogus":1}`,
	} {
		resp, err := http.Post(base+"/api/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := srv.Scheduler().Queued(); n != 0 {
		t.Errorf("rejected submissions queued %d cells", n)
	}

	// The same spec without the unknown field is accepted.
	ok := `{"insts_per_trace":2000,"seeds_per_profile":1,"modes":["iraw"],"levels_mv":[500]}`
	resp, err := http.Post(base+"/api/v1/sweeps", "application/json", strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Errorf("valid submit: status %d, want 2xx", resp.StatusCode)
	}
}

// TestSubmitRejectsOversizedSuite: a spec whose per-profile trace total
// (insts_per_trace × seeds_per_profile) exceeds the admission bound is
// refused with 400 before any trace is generated, even though each trace
// on its own is within bounds.
func TestSubmitRejectsOversizedSuite(t *testing.T) {
	srv, base := newTestDaemon(t, ServerOpts{Workers: -1})
	body := `{"insts_per_trace":2000000,"seeds_per_profile":64,"modes":["iraw"],"levels_mv":[500]}`
	resp, err := http.Post(base+"/api/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
	}
	if n := srv.Scheduler().Queued(); n != 0 {
		t.Errorf("rejected submission queued %d cells", n)
	}
}
