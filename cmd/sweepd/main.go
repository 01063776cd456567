// Command sweepd is the sweep daemon: it accepts voltage-sweep
// specifications over HTTP, decomposes them into journal-keyed cells, and
// executes the cells under time-bounded leases — in-process, on external
// worker processes, or both. Workers can crash, hang, or be kill -9'ed and
// the sweep still completes, bit-identical to a local run, because every
// cell is idempotent by content address in the shared journal.
//
// Start a daemon (journal directory is required; it also holds the
// exclusive-writer LOCK):
//
//	sweepd -addr 127.0.0.1:7077 -journal /tmp/jnl
//
// Join external workers — any number, any time, from any machine. A
// worker journals into a private scratch directory and uploads each
// sealed result in its Complete call (the daemon verifies the bytes'
// content address before admitting them), so no filesystem is shared:
//
//	sweepd -worker -join 127.0.0.1:7077
//
// Submit a sweep and watch it with curl:
//
//	curl -s -d '{"insts_per_trace":40000,"seeds_per_profile":1,"modes":["baseline","iraw"]}' \
//	    http://127.0.0.1:7077/api/v1/sweeps
//	curl -s http://127.0.0.1:7077/api/v1/sweeps/sweep-1
//	curl -sN http://127.0.0.1:7077/api/v1/sweeps/sweep-1/events
//
// Or let the CLIs drive it: `vccsweep -server 127.0.0.1:7077` renders the
// usual sweep table from the daemon's results, and
// `figures -fig 11b -server 127.0.0.1:7077` does the same for Figure
// 11(b).
//
// SIGTERM or SIGINT drains gracefully: no new sweeps or leases, in-flight
// cells finish and journal, the journal is verified, and the process exits
// 0. A second signal forces exit 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lowvcc/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address (host:port; port 0 picks a free one)")
	journalDir := flag.String("journal", "", "journal directory shared by daemon and workers (required)")
	workers := flag.Int("workers", 0, "in-process simulation workers (0 = GOMAXPROCS, -1 = none: external workers only)")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "cell lease TTL; a dead worker's cells requeue within ~1.25x this")
	maxQueue := flag.Int("max-queue", 4096, "max pending+leased cells before submissions get 429")
	maxAttempts := flag.Int("max-attempts", 5, "attempts per cell (reclaims included) before it is declared failed")
	sweepDeadline := flag.Duration("sweep-deadline", 0, "per-sweep wall-clock budget (0 = none)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell wall-clock budget on this process's workers (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget for in-flight cells")
	fsync := flag.Bool("fsync", true, "fsync journal entries (power-loss durability)")
	retries := flag.Int("retries", 1, "window-level transient-failure retries per cell execution")
	retryBackoff := flag.Duration("retry-backoff", time.Second, "backoff before the first retry (doubles, jittered)")
	journalBudget := flag.Int64("journal-budget", 0, "journal disk budget in bytes; LRU entries evict past it (0 = unbounded)")
	ckptBudget := flag.Int64("ckpt-budget", 0, "checkpoint-store disk budget in bytes of snapshot files, worker mode; LRU snapshots evict past it (0 = unbounded)")
	submitRate := flag.Float64("submit-rate", 0, "per-client sweep submissions per second (0 = unlimited)")
	submitBurst := flag.Int("submit-burst", 2, "per-client submission burst on top of -submit-rate")
	maxCells := flag.Int("max-cells-per-sweep", 0, "reject any single sweep expanding past this many cells (0 = unlimited)")

	workerMode := flag.Bool("worker", false, "run as an external worker instead of a daemon")
	join := flag.String("join", "", "daemon address to pull leases from (worker mode)")
	name := flag.String("name", "", "worker name in leases and events (worker mode; default pid-derived)")
	poll := flag.Duration("poll", 250*time.Millisecond, "idle poll interval (worker mode)")
	workerJournal := flag.String("worker-journal", "", "worker's private journal directory (worker mode; default throwaway temp dir)")
	flag.Parse()

	var err error
	if *workerMode {
		err = runWorker(workerConfig{
			join: *join, name: *name, journalDir: *workerJournal,
			poll: *poll, cellTimeout: *cellTimeout,
			retries: *retries, retryBackoff: *retryBackoff,
			journalBudget: *journalBudget, ckptBudget: *ckptBudget,
		})
	} else {
		err = runDaemon(daemonConfig{
			addr: *addr, journalDir: *journalDir, workers: *workers,
			leaseTTL: *leaseTTL, maxQueue: *maxQueue, maxAttempts: *maxAttempts,
			sweepDeadline: *sweepDeadline, cellTimeout: *cellTimeout,
			drainTimeout: *drainTimeout, fsync: *fsync,
			retries: *retries, retryBackoff: *retryBackoff,
			journalBudget: *journalBudget,
			submitRate:    *submitRate, submitBurst: *submitBurst, maxCells: *maxCells,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	addr, journalDir           string
	workers                    int
	leaseTTL                   time.Duration
	maxQueue, maxAttempts      int
	sweepDeadline, cellTimeout time.Duration
	drainTimeout               time.Duration
	fsync                      bool
	retries                    int
	retryBackoff               time.Duration
	journalBudget              int64
	submitRate                 float64
	submitBurst, maxCells      int
}

func runDaemon(cfg daemonConfig) error {
	if cfg.journalDir == "" {
		return fmt.Errorf("-journal is required (it holds results and the writer lock)")
	}
	srv, warn, err := service.NewServer(service.ServerOpts{
		SchedulerOpts: service.SchedulerOpts{
			JournalDir:       cfg.journalDir,
			LeaseTTL:         cfg.leaseTTL,
			MaxQueuedCells:   cfg.maxQueue,
			MaxAttempts:      cfg.maxAttempts,
			SweepDeadline:    cfg.sweepDeadline,
			JournalSync:      cfg.fsync,
			JournalBudget:    cfg.journalBudget,
			SubmitRate:       cfg.submitRate,
			SubmitBurst:      cfg.submitBurst,
			MaxCellsPerSweep: cfg.maxCells,
		},
		Workers:      cfg.workers,
		CellTimeout:  cfg.cellTimeout,
		Retries:      cfg.retries,
		RetryBackoff: cfg.retryBackoff,
	})
	if err != nil {
		return err
	}
	if warn != "" {
		fmt.Fprintln(os.Stderr, "sweepd:", warn)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		srv.Scheduler().Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The parseable serving line: scripts read the actual port from it
	// when -addr ends in :0.
	fmt.Printf("sweepd: serving on %s\n", ln.Addr())
	os.Stdout.Sync()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		srv.Scheduler().Close()
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "sweepd: %v: draining (in-flight cells finish; new work rejected)\n", sig)
	}

	// Second signal: forced exit.
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "sweepd: second signal, forcing exit")
		os.Exit(1)
	}()

	dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)

	// Let in-flight HTTP responses (e.g. event streams delivering their
	// terminal events) finish before the listener dies.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	httpSrv.Shutdown(hctx)

	n, verr := srv.Scheduler().Journal().Verify()
	switch {
	case verr != nil:
		return fmt.Errorf("journal verification after drain: %w", verr)
	case drainErr != nil:
		return fmt.Errorf("drain: %w (journal consistent: %d entries)", drainErr, n)
	}
	fmt.Fprintf(os.Stderr, "sweepd: drained; journal verified (%d entries)\n", n)
	return nil
}

type workerConfig struct {
	join, name, journalDir    string
	poll, cellTimeout         time.Duration
	retries                   int
	retryBackoff              time.Duration
	journalBudget, ckptBudget int64
}

func runWorker(cfg workerConfig) error {
	if cfg.join == "" {
		return fmt.Errorf("-worker requires -join <daemon address>")
	}
	if cfg.name == "" {
		cfg.name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Fprintf(os.Stderr, "sweepd: worker %s pulling from %s\n", cfg.name, cfg.join)
	err := service.Work(ctx, cfg.join, service.WorkerOpts{
		Name:          cfg.name,
		Poll:          cfg.poll,
		CellTimeout:   cfg.cellTimeout,
		Retries:       cfg.retries,
		RetryBackoff:  cfg.retryBackoff,
		JournalDir:    cfg.journalDir,
		JournalBudget: cfg.journalBudget,
		CkptBudget:    cfg.ckptBudget,
	})
	if err == context.Canceled {
		return nil // clean signal-driven exit
	}
	return err
}
