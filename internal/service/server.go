package service

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"lowvcc/internal/sim"
)

// ServerOpts configures a Server.
type ServerOpts struct {
	SchedulerOpts

	// Workers sizes the daemon's in-process simulation pool: 0 selects
	// GOMAXPROCS, negative disables local simulation entirely (the daemon
	// then only coordinates external workers).
	Workers int

	// Worker options forwarded to the in-process pool.
	CellTimeout  time.Duration
	Retries      int
	RetryBackoff time.Duration

	// Faults injects failures into the in-process pool (tests only).
	Faults *sim.FaultPlan
}

// Server is the sweep daemon's HTTP surface wrapped around a Scheduler and
// an optional in-process worker pool.
//
// Endpoints:
//
//	POST /api/v1/sweeps                 submit a sim.SweepSpec  -> 201 {"id": ...}
//	GET  /api/v1/sweeps/{id}            SweepStatus
//	GET  /api/v1/sweeps/{id}/events     progress stream, one CellEvent JSON per line
//	POST /api/v1/lease                  acquire   -> 200 Lease | 204 no work
//	POST /api/v1/lease/{id}/heartbeat   extend    -> 204 | 410 lease lost
//	POST /api/v1/lease/{id}/done        complete  -> 204 | 410 lease lost
//	GET  /healthz                       process liveness (always 200 while serving)
//	GET  /readyz                        accepting work? (503 while draining)
//
// Backpressure surfaces as 429 with a Retry-After header; draining as 503.
type Server struct {
	sched *Scheduler
	opts  ServerOpts

	draining    atomic.Bool
	stopWorkers func()
}

// NewServer builds the daemon: scheduler (journal lock, janitor) plus the
// in-process worker pool. The warning, when non-empty, reports a stale
// journal lock that was reclaimed.
func NewServer(opts ServerOpts) (*Server, string, error) {
	sched, warn, err := NewScheduler(opts.SchedulerOpts)
	if err != nil {
		return nil, warn, err
	}
	srv := &Server{sched: sched, opts: opts}
	n := opts.Workers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > 0 {
		srv.stopWorkers = RunWorkers(context.Background(), sched, n, WorkerOpts{
			Poll:         25 * time.Millisecond,
			CellTimeout:  opts.CellTimeout,
			Retries:      opts.Retries,
			RetryBackoff: opts.RetryBackoff,
			Faults:       opts.Faults,
		})
	}
	return srv, warn, nil
}

// Scheduler exposes the underlying scheduler (tests, drain verification).
func (srv *Server) Scheduler() *Scheduler { return srv.sched }

// Handler returns the daemon's HTTP mux.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/sweeps", srv.handleSubmit)
	mux.HandleFunc("GET /api/v1/sweeps/{id}", srv.handleStatus)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/events", srv.handleEvents)
	mux.HandleFunc("POST /api/v1/lease", srv.handleAcquire)
	mux.HandleFunc("POST /api/v1/lease/{id}/heartbeat", srv.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/lease/{id}/done", srv.handleComplete)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if srv.draining.Load() || srv.sched.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// Drain performs the graceful-shutdown sequence: stop admitting work,
// let in-flight cells finish (bounded by ctx), stop the worker pool, and
// release the journal lock. After Drain the handler still answers status
// and event reads — clients watching a sweep see its terminal event — but
// every mutation is rejected.
func (srv *Server) Drain(ctx context.Context) error {
	srv.draining.Store(true)
	err := srv.sched.Drain(ctx)
	if srv.stopWorkers != nil {
		srv.stopWorkers()
		srv.stopWorkers = nil
	}
	if cerr := srv.sched.Close(); err == nil {
		err = cerr
	}
	return err
}

// clientID identifies the submitting client for admission control: the
// X-Client-ID header when present (trusted deployments name themselves),
// otherwise the peer host — good enough to keep one greedy machine from
// starving the rest.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders d as a Retry-After header value, rounding up
// so a sub-second quota window still tells the client to wait.
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Seconds() + 0.5)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Unknown fields are rejected, not ignored: a stale client's retired
	// option must not silently run under different semantics.
	var spec sim.SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	id, err := srv.sched.SubmitAs(clientID(r), spec)
	var busy *BusyError
	var quota *QuotaError
	switch {
	case errors.As(err, &busy):
		w.Header().Set("Retry-After", retryAfterSeconds(busy.RetryAfter))
		http.Error(w, busy.Error(), http.StatusTooManyRequests)
	case errors.As(err, &quota):
		w.Header().Set("Retry-After", retryAfterSeconds(quota.RetryAfter))
		http.Error(w, quota.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		writeJSON(w, http.StatusCreated, map[string]string{"id": id})
	}
}

func (srv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := srv.sched.Status(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the sweep's progress as one JSON-encoded CellEvent
// per line (ndjson), flushed per event, ending after the terminal event.
// The scheduler never blocks on this handler: if the connection can't keep
// up the subscription is dropped and the handler resubscribes, resuming
// from history by event count — every event is delivered exactly once per
// connection, in order, regardless of lag.
func (srv *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")

	enc := json.NewEncoder(w)
	send := func(ev CellEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	sent := 0
	for {
		history, live, cancel, err := srv.sched.Subscribe(id)
		if err != nil {
			if sent == 0 {
				http.Error(w, err.Error(), http.StatusNotFound)
			}
			return
		}
		// Catch up from history first: after a lag-induced drop this is
		// where the missed events live. The terminal event, once sent,
		// ends the stream.
		for ; sent < len(history); sent++ {
			if !send(history[sent]) {
				cancel()
				return
			}
			if history[sent].Terminal {
				cancel()
				return
			}
		}
	live:
		for {
			select {
			case <-r.Context().Done():
				cancel()
				return
			case ev, ok := <-live:
				if !ok {
					// Lag drop or daemon shutdown mid-sweep: resubscribe and
					// resume from history — no event is lost or repeated.
					cancel()
					break live
				}
				sent++
				if !send(ev) {
					cancel()
					return
				}
				if ev.Terminal {
					cancel()
					return
				}
			}
		}
	}
}

func (srv *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		worker = r.RemoteAddr
	}
	lease, err := srv.sched.Acquire(worker)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (srv *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if err := srv.sched.Heartbeat(r.PathValue("id")); err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (srv *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	// Entry is the push-down upload: sealed journal-entry bytes, verified
	// by the scheduler before admission. The larger body cap covers the
	// biggest plausible windowed-cell entry with room to spare.
	var body struct {
		Worker string `json:"worker"`
		Err    string `json:"err"`
		Entry  []byte `json:"entry"`
	}
	if r.Body != nil {
		_ = json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&body)
	}
	if err := srv.sched.Complete(r.PathValue("id"), body.Worker, body.Err, body.Entry); err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure here is a connection-level problem; the client
	// retries, nothing useful left to do server-side.
	_ = json.NewEncoder(w).Encode(v)
}
