package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/service"
	"lowvcc/internal/sim"
)

// tracedDaemon runs daemon-sweep in-process: the daemon's scheduler
// behind its own HTTP handler (wrapped so every submit, acquire and
// complete is a span), two push-down workers with private journals pulling
// over HTTP, and one client submitting the two grids in turn.
func tracedDaemon(b *bench, t *tracer) (string, error) {
	rec := t.rec
	dir, err := b.scratch("daemon-traced-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	root := rec.begin("bench.daemon-sweep", 0, "")
	var srv *service.Server
	err = rec.do("service.start", root, "", func() (e error) {
		srv, _, e = service.NewServer(service.ServerOpts{
			SchedulerOpts: service.SchedulerOpts{JournalDir: filepath.Join(dir, "jnl"), JournalSync: true},
			Workers:       -1, Retries: 1, RetryBackoff: time.Second,
		})
		return
	})
	if err != nil {
		return "", err
	}
	mw := &httpSpans{rec: rec, parent: root, held: make(map[string]time.Time), completes: make(map[string]int)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: mw.wrap(srv.Handler())}
	go hs.Serve(ln)
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			service.Work(ctx, addr, service.WorkerOpts{
				Name: fmt.Sprintf("bench-%d", i), Poll: 20 * time.Millisecond,
				Retries: 1, RetryBackoff: time.Second,
				JournalDir: filepath.Join(dir, fmt.Sprintf("worker%d", i)),
			})
		}(i)
	}
	stopFleet := func() {
		cancel()
		wg.Wait()
		dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
		defer dcancel()
		srv.Drain(dctx)
		hs.Shutdown(dctx)
	}

	cl, err := service.NewClient(addr)
	if err != nil {
		stopFleet()
		return "", err
	}
	var outs [][]byte
	var aggs []*core.Result
	var specs []sim.SweepSpec
	var cells []cellRef
	clients := rec.begin("bench.client", root, "")
	for _, grid := range daemonGrids {
		modes, err := sim.ParseModes(grid)
		if err != nil {
			stopFleet()
			return "", err
		}
		spec := sim.SweepSpec{InstsPerTrace: daemonInsts, SeedsPerProfile: 1}
		for _, m := range modes {
			spec.Modes = append(spec.Modes, m.String())
		}
		specs = append(specs, spec)
		traces := spec.Traces()
		var out bytes.Buffer
		tbl, err := newSweepTable(&out, modes)
		if err == nil {
			err = cl.StreamLevels(ctx, spec, func(v circuit.Millivolts, pts map[circuit.Mode]*sim.Point, fails map[circuit.Mode]*sim.CellError) error {
				for m, ce := range fails {
					return fmt.Errorf("%v %v: %v", v, m, ce)
				}
				for _, m := range modes {
					aggs = append(aggs, pts[m].Agg)
					for _, tr := range traces {
						cells = append(cells, cellRef{sim.SweepLabel(v, m), tr.Name})
					}
				}
				return rec.do("report.render", clients, "", func() error { return addSweepRow(tbl, modes, v, pts) })
			})
		}
		if err != nil {
			stopFleet()
			return "", err
		}
		outs = append(outs, out.Bytes())
	}
	rec.end(clients)
	js := srv.Scheduler().Journal().Stats()
	stopFleet()
	rec.end(root)

	wall := rec.total("bench.client")
	t.timed = wall
	distinct, err := distinctCellKeys(specs[0].NewRunner(), specs, cells)
	if err != nil {
		return "", err
	}
	mw.metrics(t, wall, cells, distinct)
	t.set("journal.replay_ratio", ratio(float64(js.Hits), float64(js.Hits+js.Misses)))
	t.set("report.render_s", rec.total("report.render"))
	t.simulated(aggs)

	probe := rec.begin("bench.probe", 0, "")
	err = journalProbe(t, b, filepath.Join(dir, "jnl"))
	if err == nil {
		err = cacheProbe(t, probe, sim.SuiteSpec{InstsPerTrace: daemonInsts, SeedsPerProfile: 1}.Traces())
	}
	rec.end(probe)
	return digestOf(outs...), err
}

// httpSpans wraps the daemon's handler: one span per submit, acquire and
// complete request, plus the lease bookkeeping (acquire-to-complete hold
// times, duplicate completes, upload sizes) those requests reveal.
type httpSpans struct {
	rec    *recorder
	parent int

	mu                      sync.Mutex
	acquires, emptyAcquires int
	held                    map[string]time.Time // lease id -> granted at
	holdMS                  []float64
	completes               map[string]int
	uploadBytes             int64
}

type statusWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
	keep   bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.keep {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (m *httpSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		p := r.URL.Path
		switch {
		case r.Method == http.MethodPost && p == "/api/v1/sweeps":
			name = "service.submit"
		case r.Method == http.MethodPost && p == "/api/v1/lease":
			name = "service.acquire"
		case r.Method == http.MethodPost && strings.HasSuffix(p, "/done"):
			name = "service.complete"
		case r.Method == http.MethodPost && strings.HasSuffix(p, "/heartbeat"):
			name = "service.heartbeat"
		default: // status and the long-lived events stream: client waiting
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, keep: name == "service.acquire"}
		start := time.Now()
		next.ServeHTTP(sw, r)
		end := time.Now()
		m.rec.add(name, m.parent, "", start, end)

		m.mu.Lock()
		defer m.mu.Unlock()
		switch name {
		case "service.acquire":
			m.acquires++
			if sw.status == http.StatusNoContent {
				m.emptyAcquires++
				return
			}
			var l struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(sw.body.Bytes(), &l) == nil {
				m.held[l.ID] = end
			}
		case "service.complete":
			id := strings.TrimSuffix(strings.TrimPrefix(p, "/api/v1/lease/"), "/done")
			m.completes[id]++
			m.uploadBytes += max(r.ContentLength, 0)
			if at, ok := m.held[id]; ok && m.completes[id] == 1 {
				m.holdMS = append(m.holdMS, 1000*start.Sub(at).Seconds())
				m.rec.add("sim.cell", m.parent, id, at, start)
			}
		}
	})
}

// metrics sets the service and runner metrics; cells are the grids' cells
// the client received, distinct of them by Runner.CellKey.
func (m *httpSpans) metrics(t *tracer, wall float64, cells []cellRef, distinct int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.rec
	t.set("service.submit_s", rec.total("service.submit"))
	t.setPct("service.acquire_ms.p50", rec.durationsMS("service.acquire"), 0.5)
	t.setPct("service.acquire_ms.p90", rec.durationsMS("service.acquire"), 0.9)
	t.setPct("service.complete_ms.p50", rec.durationsMS("service.complete"), 0.5)
	t.setPct("service.complete_ms.p90", rec.durationsMS("service.complete"), 0.9)
	t.set("service.empty_acquire_ratio", ratio(float64(m.emptyAcquires), float64(m.acquires)))
	retries, n := 0, 0
	for _, c := range m.completes {
		retries += c - 1
		n += c
	}
	t.set("service.retries", float64(retries))
	t.set("service.upload_kb", ratio(float64(m.uploadBytes)/1024, float64(n)))

	// Workers are busy from a lease's grant to its completion; the grids'
	// other cells replayed from the daemon's journal.
	var busy float64
	for _, h := range m.holdMS {
		busy += h / 1000
	}
	t.simCells(len(cells), distinct, m.holdMS, busy, 2*wall)
}

// journalProbe times the journal's public calls on the entries the daemon
// admitted: Admit (the daemon's upload check) and Get into a fresh
// journal, Put of the decoded entry into another.
func journalProbe(t *tracer, b *bench, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.cell"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("journal probe: no entries in %s (%v)", dir, err)
	}
	sort.Strings(files)
	scratch, err := b.scratch("journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	admitJ, err := journal.Open(filepath.Join(scratch, "admit"))
	if err != nil {
		return err
	}
	putJ, err := journal.Open(filepath.Join(scratch, "put"))
	if err != nil {
		return err
	}
	admitJ.SetSync(true)
	putJ.SetSync(true)
	var admitMS, getMS, putMS []float64
	var size int64
	ms := func(f func() error) (float64, error) {
		start := time.Now()
		err := f()
		return 1000 * time.Since(start).Seconds(), err
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		size += int64(len(data))
		key := strings.TrimSuffix(filepath.Base(f), ".cell")
		var e *journal.Entry
		d, err := ms(func() (err error) { e, err = admitJ.Admit(key, data); return })
		if err != nil {
			return err
		}
		admitMS = append(admitMS, d)
		d, _ = ms(func() error {
			if _, ok := admitJ.Get(key); !ok {
				return fmt.Errorf("journal probe: %s not readable after Admit", key)
			}
			return nil
		})
		getMS = append(getMS, d)
		if d, err = ms(func() error { return putJ.Put(e) }); err != nil {
			return err
		}
		putMS = append(putMS, d)
	}
	t.setPct("journal.admit_ms.p50", admitMS, 0.5)
	t.setPct("journal.get_ms.p50", getMS, 0.5)
	t.setPct("journal.put_ms.p50", putMS, 0.5)
	t.set("journal.entry_kb", float64(size)/1024/float64(len(files)))
	return nil
}
