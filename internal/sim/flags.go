package sim

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"time"
)

// RegisterFlags binds the runner's command-line options into fs. Every
// flag writes straight into one of r's fields as it parses, so there is no
// post-parse step. tool prefixes the -progress lines on stderr. With names
// given, only those flags are bound (tools that expose a subset of the
// options); otherwise all of them are. Registering sets every field the
// flags cover to its flag default, bound or not, so call it on a runner
// before configuring it any other way.
func (r *Runner) RegisterFlags(fs *flag.FlagSet, tool string, names ...string) {
	all := flag.NewFlagSet(tool, flag.ContinueOnError)
	all.IntVar(&r.Workers, "workers", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
	all.IntVar(&r.Width, "width", 0, "fetch/issue width of the simulated core, 1..4 (0 = the modelled default, 2)")
	all.IntVar(&r.WindowInsts, "window", 0, fmt.Sprintf("shard traces into sample windows of this many instructions (0 = auto: traces of %d+ instructions shard into %d windows; <0 = off)", autoWindowThreshold, autoWindowCount))
	all.IntVar(&r.WarmInsts, "warm", 0, "warm-up prefix replayed before each sample window (<=0 = the window's whole history)")
	all.Func("ckpt", "warm-state checkpoint `store`: auto (default; journal dir or in-memory), off, or a directory", func(s string) error {
		switch s {
		case "off":
			r.DisableCheckpoints = true
		case "", "auto":
			r.DisableCheckpoints, r.CkptDir = false, ""
		default:
			r.DisableCheckpoints, r.CkptDir = false, s
		}
		return nil
	})
	all.DurationVar(&r.PointTimeout, "timeout", 0, "per-point wall-clock budget (0 = none)")
	all.BoolFunc("progress", "print per-cell progress lines to stderr as grid cells complete", func(s string) error {
		on, err := strconv.ParseBool(s)
		r.Progress = nil
		if on {
			r.Progress = progressPrinter(os.Stderr, tool)
		}
		return err
	})
	all.StringVar(&r.JournalDir, "journal", "", "journal completed cells to this directory and replay them on restart")
	all.Int64Var(&r.JournalBudget, "journal-budget", 0, "journal disk budget in bytes; least-recently-used entries evict past it (0 = unbounded)")
	all.Int64Var(&r.CkptBudget, "ckpt-budget", 0, "checkpoint-store disk budget in bytes of snapshot files; least-recently-used snapshots evict past it (0 = unbounded)")
	all.IntVar(&r.Retries, "retries", 0, "retry transiently-failed cells (timeouts) this many times")
	all.DurationVar(&r.RetryBackoff, "retry-backoff", time.Second, "backoff before the first retry (doubles per attempt)")
	all.BoolVar(&r.AllowPartial, "allow-partial", false, "keep going past failed cells and render them as FAIL(reason)")
	all.VisitAll(func(f *flag.Flag) {
		if len(names) == 0 || slices.Contains(names, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
}

// progressPrinter returns the -progress callback: one line on w per
// completed or failed cell, timestamped from the moment progress was
// switched on. The terminal error update prints nothing; the error
// surfaces through the experiment that ran.
func progressPrinter(w io.Writer, tool string) func(PointUpdate) {
	start := time.Now()
	return func(u PointUpdate) {
		switch {
		case u.Err != nil && u.Point >= 0:
			fmt.Fprintf(w, "%s: [%6.2fs] %3d/%d %s %s FAILED: %v\n",
				tool, time.Since(start).Seconds(), u.Done, u.Total, u.Label, u.TraceName, u.Err)
		case u.Err != nil:
		default:
			tag := ""
			if u.Replayed {
				tag = " [replayed]"
			}
			fmt.Fprintf(w, "%s: [%6.2fs] %3d/%d %s %s (%d window(s))%s\n",
				tool, time.Since(start).Seconds(), u.Done, u.Total, u.Label, u.TraceName, u.Windows, tag)
		}
	}
}
