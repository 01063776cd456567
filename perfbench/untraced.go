package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Workload sizes. The suite commands fix their own suite seeds, so only
// membound-trace's input follows --seed.
const (
	figuresInsts  = 20000
	figuresCells  = 770 // cells `figures -fig all` runs at -insts 20000 -seeds 1
	shardedInsts  = 200000
	sweepCells    = 182 // 7 suite traces x 13 levels x 2 modes
	daemonInsts   = 5000
	memboundInsts = 1000000
)

// daemonGrids are daemon-sweep's two submissions; the second shares its
// iraw half with the first.
var daemonGrids = []string{"baseline,iraw", "iraw,extrabypass"}

func figuresArgs() []string {
	return []string{"-fig", "all", "-insts", strconv.Itoa(figuresInsts), "-seeds", "1", "-csv", "-progress", "-workers", "2"}
}

func shardedArgs() []string {
	return []string{"-insts", strconv.Itoa(shardedInsts), "-seeds", "1", "-modes", "baseline,iraw", "-csv", "-progress", "-workers", "2"}
}

// progressOutcome turns one -progress run of a sweep command into an
// outcome: setup is launch to the first progress line (start-up, suite
// generation, first cell); every cell must have reported.
func progressOutcome(r run, cells int) outcome {
	o := outcome{wall: r.wall, cpu: r.cpu, setup: r.firstLine, rssMB: r.rssMB,
		attempted: cells, digest: digestOf(r.stdout)}
	if r.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", r.err)
		o.failed = cells
	} else if r.lines != cells {
		fmt.Fprintf(os.Stderr, "perfbench: %d progress lines, want %d\n", r.lines, cells)
		o.failed = cells
	}
	return o
}

var figuresAll = &workload{
	name:  "figures-all",
	insts: figuresCells * figuresInsts,
	run: func(b *bench) (outcome, error) {
		r := b.runTool("figures", figuresArgs()...)
		if r.err == nil {
			printPaperErr(r.stdout)
		}
		return progressOutcome(r, figuresCells), nil
	},
	traced: tracedFigures,
}

var shardedSweep = &workload{
	name:  "sharded-sweep",
	insts: sweepCells * shardedInsts,
	run: func(b *bench) (outcome, error) {
		return progressOutcome(b.runTool("vccsweep", shardedArgs()...), sweepCells), nil
	},
	traced: tracedSharded,
}

var memboundTrace = &workload{
	name:  "membound-trace",
	insts: memboundInsts,
	run: func(b *bench) (outcome, error) {
		path := filepath.Join(b.tmp, fmt.Sprintf("membound-%d.trc", b.seed))
		defer os.Remove(path)
		gen := b.runTool("tracegen", "-profile", "membound", "-insts", strconv.Itoa(memboundInsts),
			"-seed", strconv.FormatUint(b.seed, 10), "-o", path)
		o := outcome{attempted: 1, setup: gen.wall, cpu: gen.cpu, rssMB: gen.rssMB}
		if gen.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", gen.err)
			o.failed = 1
			return o, nil
		}
		sim := b.runTool("irawsim", "-trace", path)
		o.wall, o.cpu, o.rssMB = sim.wall, o.cpu+sim.cpu, max(o.rssMB, sim.rssMB)
		o.digest = digestOf(sim.stdout)
		if sim.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", sim.err)
			o.failed = 1
		}
		return o, nil
	},
	traced: tracedMembound,
}

var daemonSweep = &workload{
	name:  "daemon-sweep",
	insts: int64(len(daemonGrids)) * sweepCells * daemonInsts,
	// prepare records the local vccsweep CSV of each grid: the daemon's
	// output must match it byte for byte.
	prepare: func(b *bench) error {
		for _, modes := range daemonGrids {
			r := b.runTool("vccsweep", daemonClientArgs(modes, "")...)
			if r.err != nil {
				return r.err
			}
			b.local[modes] = r.stdout
		}
		return nil
	},
	run:    runDaemonSweep,
	traced: tracedDaemon,
}

// daemonClientArgs are vccsweep's arguments for one grid: on the daemon at
// server, or locally on two workers when server is "".
func daemonClientArgs(modes, server string) []string {
	args := []string{"-insts", strconv.Itoa(daemonInsts), "-seeds", "1", "-modes", modes, "-csv"}
	if server == "" {
		return append(args, "-workers", "2")
	}
	return append(args, "-server", server)
}

// runDaemonSweep is one daemon-sweep iteration: a sweepd daemon with no
// in-process workers, two external workers with private journals, and one
// client submitting the two grids in turn through a timing proxy.
func runDaemonSweep(b *bench) (outcome, error) {
	o := outcome{attempted: len(daemonGrids) * sweepCells}
	dir, err := b.scratch("daemon-")
	if err != nil {
		return o, err
	}
	defer os.RemoveAll(dir)
	launched := time.Now()
	f, err := b.startFleet(dir)
	if err != nil {
		f.stop(b)
		return o, err
	}
	px, err := newSubmitProxy(f.addr)
	if err != nil {
		f.stop(b)
		return o, err
	}
	var outs [][]byte
	var runs []run
	start := time.Now()
	for _, modes := range daemonGrids {
		r := b.runTool("vccsweep", daemonClientArgs(modes, px.addr())...)
		runs = append(runs, r)
		outs = append(outs, r.stdout)
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", r.err)
			o.failed = o.attempted
			break
		}
	}
	o.wall = time.Since(start).Seconds()
	px.close()
	stopErr := f.stop(b)
	if stopErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", stopErr)
		o.failed = o.attempted
	}
	if t := px.firstSubmit(); !t.IsZero() {
		o.setup = t.Sub(launched).Seconds()
	}
	for _, r := range runs {
		o.cpu += r.cpu
		o.rssMB = max(o.rssMB, r.rssMB)
	}
	for _, c := range f.cmds {
		cpu, rss := usage(c)
		o.cpu += cpu
		o.rssMB = max(o.rssMB, rss)
	}
	if o.failed == 0 {
		for i, modes := range daemonGrids {
			if string(outs[i]) != string(b.local[modes]) {
				fmt.Fprintf(os.Stderr, "perfbench: daemon CSV for %s differs from local vccsweep\n", modes)
				o.failed = o.attempted
			}
		}
	}
	o.digest = digestOf(outs...)
	return o, nil
}

// fleet is a running daemon and its external workers.
type fleet struct {
	addr string
	cmds []*exec.Cmd // daemon first
}

// startFleet launches `sweepd -workers -1` on a free port (read from its
// "serving on" line) and two `sweepd -worker` processes, each with its
// own private journal under dir.
func (b *bench) startFleet(dir string) (*fleet, error) {
	f := &fleet{}
	pr, pw, err := os.Pipe()
	if err != nil {
		return f, err
	}
	d, err := b.launch("sweepd", pw, nil, "-addr", "127.0.0.1:0", "-journal", filepath.Join(dir, "jnl"), "-workers", "-1")
	pw.Close()
	if err != nil {
		pr.Close()
		return f, err
	}
	f.cmds = append(f.cmds, d)
	addrCh := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "sweepd: serving on "); ok && !sent {
				addrCh <- a
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
	}()
	select {
	case a, ok := <-addrCh:
		if !ok {
			return f, fmt.Errorf("sweepd exited before serving")
		}
		f.addr = a
	case <-time.After(30 * time.Second):
		return f, fmt.Errorf("sweepd printed no serving line within 30s")
	}
	for i := 1; i <= 2; i++ {
		jdir := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		c, err := b.launch("sweepd", nil, nil, "-worker", "-join", f.addr, "-name", fmt.Sprintf("bench-%d", i),
			"-poll", "20ms", "-worker-journal", jdir)
		if err != nil {
			return f, err
		}
		f.cmds = append(f.cmds, c)
	}
	return f, nil
}

// stop drains the workers, then the daemon (SIGTERM: the daemon verifies
// its journal and must exit 0), reaping every process.
func (f *fleet) stop(b *bench) error {
	var first error
	for i := len(f.cmds) - 1; i >= 0; i-- {
		if err := b.stop(f.cmds[i], syscall.SIGTERM, 10*time.Second); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// submitProxy forwards the client's requests to the daemon and stamps the
// first accepted submission (201 on POST /api/v1/sweeps).
type submitProxy struct {
	srv *http.Server
	ln  net.Listener

	mu    sync.Mutex
	first time.Time
}

func newSubmitProxy(target string) (*submitProxy, error) {
	u, err := url.Parse("http://" + target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &submitProxy{ln: ln}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.FlushInterval = -1 // the events stream is ndjson: pass lines through
	rp.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.Method == http.MethodPost && resp.Request.URL.Path == "/api/v1/sweeps" && resp.StatusCode == http.StatusCreated {
			p.mu.Lock()
			if p.first.IsZero() {
				p.first = time.Now()
			}
			p.mu.Unlock()
		}
		return nil
	}
	p.srv = &http.Server{Handler: rp}
	go p.srv.Serve(ln)
	return p, nil
}

func (p *submitProxy) addr() string { return p.ln.Addr().String() }

func (p *submitProxy) firstSubmit() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first
}

func (p *submitProxy) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx)
}
