package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bench holds one benchmark run's environment: where the tools live, the
// scratch directory, the recorded digests and every child process started.
type bench struct {
	root, binDir, buildDir, tmp string
	seed                        uint64
	record                      bool

	digestPath string
	digests    map[string]map[string]string
	// seen is the first digest each workload produced in this run; runs
	// on a seed with no recorded digest must at least agree with it.
	seen map[string]string
	// local holds reference CSVs (daemon-sweep's local vccsweep runs).
	local map[string][]byte

	mu    sync.Mutex
	procs map[*exec.Cmd]*time.Timer // started and not yet waited; the timer kills a hung one
}

// toolDeadline bounds any one child process, so a hung tool fails its
// iteration instead of outliving the benchmark's own time limit.
const toolDeadline = 120 * time.Second

func newBench(root, binDir string, seed uint64, record bool) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if binDir == "" {
		binDir = filepath.Join(root, ".bench_build", "bin")
	}
	buildDir := filepath.Dir(binDir)
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{root: root, binDir: binDir, buildDir: buildDir, tmp: tmp, seed: seed, record: record,
		digestPath: filepath.Join(root, "perfbench", "digests.json"),
		seen:       make(map[string]string), local: make(map[string][]byte),
		procs: make(map[*exec.Cmd]*time.Timer)}
	data, err := os.ReadFile(b.digestPath)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &b.digests); err != nil {
		return nil, fmt.Errorf("%s: %w", b.digestPath, err)
	}
	return b, nil
}

// cleanup kills and reaps every child still running and removes the run's
// scratch directory. Safe to call more than once and from any path.
func (b *bench) cleanup() {
	b.mu.Lock()
	var live []*exec.Cmd
	for c := range b.procs {
		live = append(live, c)
	}
	b.mu.Unlock()
	for _, c := range live {
		_ = c.Process.Kill()
		b.reap(c)
	}
	os.RemoveAll(b.tmp)
}

// launch starts a built tool with stdout and stderr wired as given and
// registers it for cleanup. TMPDIR points into the run's scratch
// directory so nothing a child creates lands outside the checkout.
func (b *bench) launch(tool string, stdout, stderr io.Writer, args ...string) (*exec.Cmd, error) {
	c := exec.Command(filepath.Join(b.binDir, tool), args...)
	c.Stdout, c.Stderr = stdout, stderr
	c.Env = append(os.Environ(), "TMPDIR="+b.tmp)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := c.Start(); err != nil {
		return nil, err
	}
	b.procs[c] = time.AfterFunc(toolDeadline, func() { _ = c.Process.Kill() })
	return c, nil
}

// reap waits for c once and unregisters it.
func (b *bench) reap(c *exec.Cmd) error {
	b.mu.Lock()
	deadline, live := b.procs[c]
	delete(b.procs, c)
	b.mu.Unlock()
	if !live {
		return nil
	}
	err := c.Wait()
	deadline.Stop()
	return err
}

// usage is the CPU time (user+sys, seconds) and peak RSS (MB) of a reaped
// child.
func usage(c *exec.Cmd) (cpu, rssMB float64) {
	if c.ProcessState == nil {
		return 0, 0
	}
	ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// stop asks c to exit with sig, waits up to grace, then kills it.
func (b *bench) stop(c *exec.Cmd, sig os.Signal, grace time.Duration) error {
	_ = c.Process.Signal(sig)
	done := make(chan error, 1)
	go func() { done <- b.reap(c) }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		_ = c.Process.Kill()
		<-done
		return fmt.Errorf("%s: did not exit within %v of %v", filepath.Base(c.Path), grace, sig)
	}
}

// run is one finished tool invocation.
type run struct {
	stdout     []byte
	wall       float64 // launch to exit, seconds
	firstLine  float64 // launch to the first stderr line, seconds (0 = none)
	lines      int     // stderr lines
	cpu, rssMB float64
	err        error
}

// runTool runs a tool to completion, timing the first stderr line (the
// first -progress line for the sweep commands).
func (b *bench) runTool(tool string, args ...string) run {
	var out strings.Builder
	pr, pw, err := os.Pipe()
	if err != nil {
		return run{err: err}
	}
	start := time.Now()
	c, err := b.launch(tool, &out, pw, args...)
	pw.Close()
	if err != nil {
		pr.Close()
		return run{err: err}
	}
	var r run
	sc := bufio.NewScanner(pr)
	var tail []string
	for sc.Scan() {
		if r.lines == 0 {
			r.firstLine = time.Since(start).Seconds()
		}
		r.lines++
		if tail = append(tail, sc.Text()); len(tail) > 5 {
			tail = tail[1:]
		}
	}
	pr.Close()
	r.err = b.reap(c)
	r.wall = time.Since(start).Seconds()
	r.stdout = []byte(out.String())
	r.cpu, r.rssMB = usage(c)
	if r.err != nil {
		r.err = fmt.Errorf("%s %s: %w\n%s", tool, strings.Join(args, " "), r.err, strings.Join(tail, "\n"))
	}
	return r
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestKey is the digests.json key for a workload's output: its seed for
// the seeded workload, "*" for the ones whose inputs the seed cannot
// reach.
func (b *bench) digestKey(w *workload) string {
	if w == memboundTrace {
		return strconv.FormatUint(b.seed, 10)
	}
	return "*"
}

// gate checks an iteration's output digest and returns (failed,
// attempted) operations: a non-zero exit or a digest mismatch fails every
// operation of the iteration.
func (b *bench) gate(w *workload, o outcome) (int, int) {
	if o.failed > 0 {
		return o.attempted, o.attempted
	}
	if err := b.checkDigest(w, o.digest); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return o.attempted, o.attempted
	}
	return 0, o.attempted
}

func (b *bench) checkDigest(w *workload, got string) error {
	key := b.digestKey(w)
	if b.record {
		if b.digests[w.name] == nil {
			b.digests[w.name] = make(map[string]string)
		}
		b.digests[w.name][key] = got
	}
	want, ok := b.digests[w.name][key]
	if !ok {
		// An unrecorded seed: the output must at least repeat within the
		// run (the simulator is deterministic).
		if first, seen := b.seen[w.name]; seen && first != got {
			return fmt.Errorf("output digest %s differs from this run's first %s (seed %s has no recorded digest)", got, first, key)
		}
		b.seen[w.name] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("output digest %s, recorded %s (seed %s)", got, want, key)
	}
	return nil
}

func (b *bench) saveDigests() error {
	data, err := json.MarshalIndent(b.digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.digestPath, append(data, '\n'), 0o644)
}

// scratch makes a fresh directory under the run's scratch directory.
func (b *bench) scratch(prefix string) (string, error) {
	return os.MkdirTemp(b.tmp, prefix)
}
