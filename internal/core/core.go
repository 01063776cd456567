package core

import (
	"fmt"
	"math"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/iq"
	"lowvcc/internal/isa"
	"lowvcc/internal/predictor"
	"lowvcc/internal/regfile"
	"lowvcc/internal/rng"
	"lowvcc/internal/scoreboard"
	"lowvcc/internal/stats"
	"lowvcc/internal/trace"
)

// Core is one simulated operating point of the modelled processor.
// Not goroutine-safe; create one Core per concurrent simulation.
type Core struct {
	cfg   Config
	model *circuit.Model
	plan  circuit.ClockPlan

	sb  *scoreboard.Scoreboard
	q   *iq.Queue
	rf  *regfile.File
	bp  *predictor.Predictor
	mem *cache.Hierarchy

	// Per-register shadow timing, mirroring what the bypass network knows:
	// when each register's in-flight value lands in the RF and until when
	// the bypass network can supply it.
	regWriteAt    [isa.NumRegs]int64
	regBypassVal  [isa.NumRegs]uint64
	regBypassTill [isa.NumRegs]int64

	// Extra-Bypass write-port FIFO state.
	portBusyUntil int64

	// bypassLvl and writePipe cache cfg.Scoreboard.BypassLevels and
	// plan.WritePipelineCycles for the per-issue hot path (refreshed by
	// applyPlan).
	bypassLvl int64
	writePipe int64

	// now is the core's clock. It never resets: every absolute stamp in
	// the hierarchy (fill completions, stabilization windows, buffer
	// occupancy) lives on this timeline, so back-to-back runs on one core
	// (warm-up passes, DVFS phases) stay consistent.
	now int64

	// wheel carries deferred events (long-latency completions, pending RF
	// writes) across cycles and across runs, bucketed by due-cycle.
	wheel wheel

	seq uint64 // value generator: each producer writes its sequence number

	// noSkip forces strict cycle stepping: idle-cycle skipping and the
	// blocked-head memo are disabled. It is the engine's only reference
	// hook: the equivalence fuzz drives both engines over the same inputs
	// and asserts bit-identical Results.
	noSkip bool

	// stop, when non-nil, is polled periodically from the run loop; a
	// non-nil return aborts the run with that error. The experiment runner
	// wires context cancellation and per-point timeouts through it so a
	// long simulation can be preempted between cycles without perturbing
	// results (the check has no side effects on core state).
	stop func() error

	// Per-run scratch, owned by the core so back-to-back Run calls (and
	// Reset-reused cores) allocate nothing on the hot path. slots is the
	// struct-of-arrays in-flight instruction state (see slotArrays); fetch
	// is a ring of slot ids.
	slots slotArrays
	fetch fetchRing
}

// New builds a core for cfg.
func New(cfg Config) (*Core, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Core{cfg: cfg}
	if err := c.reset(); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset restores the core to the state New(cfg) would produce — cold
// caches, empty pipeline, cycle zero — while keeping the core's scratch
// buffers. Every internal block is rebuilt through the same constructors
// New uses, so a Reset core is bit-identical to a fresh one; the parallel
// experiment runner relies on that to reuse one Core per worker across the
// traces of an operating point.
func (c *Core) Reset() error { return c.reset() }

func (c *Core) reset() error {
	c.model = c.cfg.model()

	c.sb = scoreboard.New(c.cfg.Scoreboard)
	c.q = iq.New(c.cfg.IQ)
	c.rf = regfile.New()
	c.bp = predictor.New(c.cfg.Predictor)
	mem, err := cache.NewHierarchy(c.cfg.Hierarchy)
	if err != nil {
		return err
	}
	c.mem = mem

	c.regWriteAt = [isa.NumRegs]int64{}
	c.regBypassVal = [isa.NumRegs]uint64{}
	c.regBypassTill = [isa.NumRegs]int64{}
	c.portBusyUntil = 0
	c.now = 0
	c.wheel.clear()
	c.seq = 0
	c.fetch.init(c.cfg.Width)
	c.slots.init(len(c.fetch.buf) + c.cfg.IQ.Size)

	c.applyPlan()
	if InstallsFaultMaps(c.cfg) {
		c.installFaultMaps()
	}
	return nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Core {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Plan returns the active clock plan.
func (c *Core) Plan() circuit.ClockPlan { return c.plan }

// applyPlan derives the clock plan at cfg.Vcc and reconfigures every block
// — exactly the Vcc controller's job in Sections 4.1.3, 4.2, 4.3 and 4.4.
func (c *Core) applyPlan() {
	c.plan = c.cfg.planOn(c.model)

	interrupted := c.plan.IRAWActive
	n := c.plan.StabilizeCycles
	avoid := interrupted && !c.cfg.DisableAvoidance

	effN := 0
	if avoid {
		effN = n
	}
	c.sb.SetStabilizeCycles(effN)
	c.q.SetStabilizeCycles(effN)
	c.rf.SetIRAW(interrupted, n)
	if interrupted {
		c.bp.SetStabilizeCycles(n)
	} else {
		c.bp.SetStabilizeCycles(0)
	}
	memCycles := c.plan.CyclesForTime(c.cfg.MemLatencyTime)
	if memCycles < 1 {
		memCycles = 1
	}
	c.mem.SetMode(cache.TimingMode{
		Interrupted: interrupted,
		N:           n,
		Avoid:       avoid,
		MemCycles:   memCycles,
	})
	c.rf.SetWritePipeline(c.plan.WritePipelineCycles)
	c.bypassLvl = int64(c.cfg.Scoreboard.BypassLevels)
	c.writePipe = int64(c.plan.WritePipelineCycles)
}

// Reconfigure moves the core to a new Vcc level at run boundaries (the
// DVFS transition: only shift-register init values, the IQ threshold, the
// STable size and the stall counters change).
func (c *Core) Reconfigure(v circuit.Millivolts) error {
	if !v.Valid() {
		return fmt.Errorf("core: invalid Vcc %v", v)
	}
	c.cfg.Vcc = v
	c.applyPlan()
	return nil
}

// installFaultMaps disables cache lines that fail timing at the reduced
// margin (Faulty Bits). The RF and IQ cannot tolerate faulty entries
// (Section 2.2, Table 1) — the design is idealized there, which the
// comparison harness reports.
func (c *Core) installFaultMaps() {
	src := rng.New(c.cfg.Seed ^ 0xFAB17B175)
	sigma := c.cfg.FaultySigma
	for _, ca := range []*cache.Cache{c.mem.IL0, c.mem.DL0, c.mem.UL1, c.mem.ITLB, c.mem.DTLB} {
		bits := ca.Config().LineBytes * 8
		if ca.Config().LineBytes > 512 {
			bits = 64 // TLBs: entry payload, not the page itself
		}
		p := circuit.LineFailProb(sigma, bits)
		ca.DisableFaultyLines(src.Fork(), p)
	}
}

// wakeKind distinguishes deferred events.
type wakeKind uint8

const (
	wakeLong    wakeKind = iota // long-latency completion heads-up
	wakeRFWrite                 // physical register-file write
)

// wake is one deferred event; fields are ordered to pack into 32 bytes
// (events are copied on every wheel push and dispatch).
type wake struct {
	at    int64
	avail int64 // cycle the value becomes available (wakeLong)
	val   uint64
	kind  wakeKind
	reg   isa.Reg
}

// fbEntry is one fetched-but-not-allocated instruction, identified by its
// in-flight slot id.
type fbEntry struct {
	slot    int
	readyAt int64
}

// fetchRing is the fetch buffer between fetch and allocate: 8 entries per
// width step, rounded up to a power of two for the ring arithmetic — 16 at
// the modelled width 2, exactly the seed's fixed depth. A ring (rather
// than a reallocated slice) keeps the fetch→allocate path allocation-free.
type fetchRing struct {
	buf  []fbEntry
	mask int
	head int
	n    int
}

// init sizes the ring for the configured width and empties it. The buffer
// is reallocated only when the capacity changes, so Reset-reused cores
// keep their scratch.
func (r *fetchRing) init(width int) {
	c := nextPow2(8 * width)
	if len(r.buf) != c {
		r.buf = make([]fbEntry, c)
		r.mask = c - 1
	}
	r.head, r.n = 0, 0
}

func (r *fetchRing) clear()          { r.head, r.n = 0, 0 }
func (r *fetchRing) len() int        { return r.n }
func (r *fetchRing) full() bool      { return r.n == len(r.buf) }
func (r *fetchRing) front() *fbEntry { return &r.buf[r.head] }

func (r *fetchRing) push(e fbEntry) {
	r.buf[(r.head+r.n)&r.mask] = e
	r.n++
}

func (r *fetchRing) pop() {
	r.head = (r.head + 1) & r.mask
	r.n--
}

// slotArrays is the struct-of-arrays layout for the in-flight instruction
// state — every instruction fetched but not yet issued. Each field the
// per-cycle issue stage reads lives in its own parallel slice indexed by
// slot id, so the register walk scans dense arrays instead of chasing
// *trace.Inst pointers, and the per-instruction
// census flags (delayed, mispred) are per-slot instead of per-trace-index
// (the seed engine allocated and cleared two trace-length bool slices per
// run).
//
// Invariants:
//
//   - slot ids are ring-allocated (free-running counter & mask) at fetch
//     and freed implicitly, in allocation order, when the instruction
//     issues — in-order issue guarantees FIFO slot lifetime;
//   - capacity covers the fetch buffer plus the IQ (the only places a
//     live slot id is held: fbEntry.slot and iq.Entry.Payload), rounded
//     up to a power of two, so a live slot is never overwritten;
//   - NOOP IQ entries consume no slots;
//   - a slot is valid from its alloc until its issue pops it from the IQ,
//     which spans the mispred hand-off from predictAtFetch to tryIssue.
type slotArrays struct {
	op []isa.Op
	// regs holds the register operands (sources, destination) packed per
	// slot, so tryIssue's walk loads one record instead of three parallel
	// bytes.
	regs    []slotRegs
	addr    []uint64
	pc      []uint64
	taken   []bool
	mispred []bool // fetch-time misprediction verdict, consumed at issue
	delayed []bool // already counted in DelayedByRFIRAW (census once per inst)
	mask    int
	next    int // free-running allocation counter (slot id = next & mask)
}

// init sizes the arrays for the configured fetch-buffer + IQ capacity.
// Like fetchRing.init, it reallocates only on a capacity change.
func (s *slotArrays) init(capacity int) {
	c := nextPow2(capacity)
	if len(s.op) != c {
		s.op = make([]isa.Op, c)
		s.regs = make([]slotRegs, c)
		s.addr = make([]uint64, c)
		s.pc = make([]uint64, c)
		s.taken = make([]bool, c)
		s.mispred = make([]bool, c)
		s.delayed = make([]bool, c)
		s.mask = c - 1
	}
	s.next = 0
}

// alloc fills the next slot from a trace instruction and returns its id.
func (s *slotArrays) alloc(in *trace.Inst) int {
	i := s.next & s.mask
	s.next++
	s.op[i] = in.Op
	s.regs[i] = slotRegs{in.Src1, in.Src2, in.Dst}
	s.addr[i] = in.Addr
	s.pc[i] = in.PC
	s.taken[i] = in.Taken
	s.mispred[i] = false
	s.delayed[i] = false
	return i
}

// slotRegs is one in-flight instruction's register operands.
type slotRegs struct{ s1, s2, dst isa.Reg }

// nextPow2 returns the smallest power of two >= n (and >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// dispatchWakes handles every deferred event due this cycle: long-latency
// heads-ups re-arm the scoreboard and schedule the pipelined RF write;
// RF-write events land the value in the physical register file. Same-cycle
// events commute (they touch disjoint per-register and per-block state), so
// bucket order is free. A handler may push into the wheel — including this
// very bucket — which is safe: pushed events are always strictly in the
// future and the due-cycle filter skips them.
// The caller pre-checks the wheel's occupancy bit for this cycle, so idle
// cycles never pay the call; the check lives only at the call site.
func (c *Core) dispatchWakes(cycle int64) (dispatched bool) {
	bypass, writePipe := c.bypassLvl, c.writePipe
	b := c.wheel.bucket(cycle)
	for i := 0; i < len(*b); {
		w := (*b)[i]
		if w.at != cycle {
			i++ // a future lap's event sharing this bucket
			continue
		}
		dispatched = true
		(*b)[i] = (*b)[len(*b)-1]
		*b = (*b)[:len(*b)-1]
		c.wheel.pending--
		switch w.kind {
		case wakeLong:
			remaining := int(w.avail - cycle)
			if remaining < 1 {
				remaining = 1
			}
			c.sb.CompleteLongLatency(w.reg, remaining)
			c.regWriteAt[w.reg] = w.avail + bypass
			// The bypass network serves consumers issuing strictly
			// before the RF write lands (through w-1 for single-cycle
			// writes; Extra-Bypass extends it across the pipelined
			// write).
			c.regBypassTill[w.reg] = w.avail + bypass + writePipe - 2
			c.regBypassVal[w.reg] = w.val
			c.wheel.push(wake{at: w.avail + bypass, kind: wakeRFWrite, reg: w.reg, val: w.val})
		case wakeRFWrite:
			c.rf.Write(w.at, w.reg, w.val)
		}
	}
	if dispatched {
		c.wheel.noteDrained(cycle)
	}
	return dispatched
}

// SetStopCheck installs f as the run loop's preemption hook: it is polled
// every few thousand loop iterations and a non-nil return aborts the
// in-flight Run/RunWindow with that error. Passing nil removes the hook.
// The hook must be side-effect free with respect to simulation state; it
// never affects the results of runs that complete.
func (c *Core) SetStopCheck(f func() error) { c.stop = f }

// statBases snapshots every counter a Result diffs against, taken when
// measurement starts: before the first simulated cycle of every run, after
// any warm-up the core was given.
type statBases struct {
	rf         regfile.Stats
	mem        cache.HierarchyStats
	il0, dl0   cache.Stats
	ul1        cache.Stats
	itlb, dtlb cache.Stats
	bp         predictor.Stats
	rfv, cv    uint64
	noop       uint64
}

func (c *Core) snapBases() statBases {
	return statBases{
		rf:   c.rf.Stats(),
		mem:  c.mem.Stats(),
		il0:  c.mem.IL0.Stats(),
		dl0:  c.mem.DL0.Stats(),
		ul1:  c.mem.UL1.Stats(),
		itlb: c.mem.ITLB.Stats(),
		dtlb: c.mem.DTLB.Stats(),
		bp:   c.bp.Stats(),
		rfv:  c.rf.Array().Stats().ViolationReads,
		cv:   c.mem.ViolationReads(),
		noop: c.q.NOOPsInjected,
	}
}

// Run simulates tr to completion and reports the result. The core's caches
// stay warm across calls (deliberately, for the DVFS scenario); use a fresh
// Core for independent measurements.
//
// The loop is event-driven: deferred completions dispatch from a timing
// wheel, the scoreboard is lazy (time advances in one jump), and cycles in
// which no pipeline stage can make progress are skipped in bulk to the next
// interesting time — see the package documentation for the skip conditions
// and why stall attribution is preserved. Results are bit-identical to
// strict cycle stepping (golden + fuzz equivalence tests hold the engines
// together).
func (c *Core) Run(tr *trace.Trace) (*Result, error) { return c.run(tr) }

// RunWindow simulates one sample window of a sharded long trace: the
// leading measureFrom instructions are a warm-up prefix, functionally
// replayed through WarmReplay (timing-free, at a fraction of simulation
// cost), and the instructions from measureFrom on are the measured span,
// simulated by RunWarmed on a pipeline that starts cold but with warm
// caches and predictor. Measurement covers every simulated cycle, so the
// boundary is trivially deterministic. RunWindow(tr, 0) is exactly Run(tr).
//
// trace.Shard produces the windows, the sim runner fans them out, and
// core.MergeWindowResults stitches the pieces.
func (c *Core) RunWindow(tr *trace.Trace, measureFrom int) (*Result, error) {
	if measureFrom < 0 || measureFrom >= len(tr.Insts) {
		return nil, fmt.Errorf("core: window start %d out of range for trace %q (%d insts)",
			measureFrom, tr.Name, len(tr.Insts))
	}
	if err := c.WarmReplay(tr, measureFrom); err != nil {
		return nil, err
	}
	return c.RunWarmed(tr, measureFrom)
}

// RunWarmed simulates tr's measured span — the instructions from measureFrom
// on — on the timed engine, assuming the warm-up prefix has already been
// applied to the core (via WarmReplay/WarmReplayRange, a checkpoint
// RestoreWarm, or any mix of restore and residual replay). It is
// RunWindow's second half, exposed so the checkpoint store can substitute a
// snapshot restore for the live replay.
func (c *Core) RunWarmed(tr *trace.Trace, measureFrom int) (*Result, error) {
	if measureFrom < 0 || measureFrom >= len(tr.Insts) {
		return nil, fmt.Errorf("core: window start %d out of range for trace %q (%d insts)",
			measureFrom, tr.Name, len(tr.Insts))
	}
	span := &trace.Trace{Name: tr.Name, Insts: tr.Insts[measureFrom:]}
	return c.run(span)
}

func (c *Core) run(tr *trace.Trace) (*Result, error) {
	insts := tr.Insts
	total := len(insts)
	if total == 0 {
		return nil, fmt.Errorf("core: empty trace %q", tr.Name)
	}

	// Stat snapshot so a Result reports this run only, not whatever the
	// core simulated or warmed before.
	bases := c.snapBases()

	var run stats.Run
	c.fetch.clear()

	fetchIdx := 0
	fetchStallUntil := int64(0)
	awaitRedirect := -1
	lastFetchLine := ^uint64(0)
	draining := false

	startCycle := c.now
	cycle := c.now
	issuedTotal := 0

	maxCycles := c.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 10000 + int64(total)*400
	}
	maxCycles += startCycle

	// Blocked-head memo: when the IQ head failed to issue, nothing can
	// change its verdict (or the stall attribution) before the earliest of
	// a wheel event and its issueRetryAt time — the head entry itself can
	// only change through a pop, which the blockage prevents, and allocs
	// only grow occupancy, which keeps MayIssue true. While the memo holds,
	// the issue stage collapses to reusing the recorded attribution; any
	// dispatched wake invalidates it (completions move scoreboard state).
	memoValid := false
	var memoUntil int64
	var memoStall stats.StallKind
	memoBlocked := -1

	loopIters := 0
	for issuedTotal < total {
		if c.stop != nil && loopIters&1023 == 0 {
			if err := c.stop(); err != nil {
				return nil, fmt.Errorf("core: %s: run aborted: %w", tr.Name, err)
			}
		}
		loopIters++
		cycle++
		if cycle > maxCycles {
			return nil, fmt.Errorf("core: deadlock watchdog at cycle %d (%d/%d issued, occupancy %d)",
				cycle, issuedTotal, total, c.q.Occupancy())
		}

		c.sb.AdvanceTo(cycle)
		if c.wheel.occ>>(uint(cycle)&wheelMask)&1 != 0 && c.dispatchWakes(cycle) {
			memoValid = false
		}

		// ===== Issue stage (reads IQ entries before this cycle's allocs).
		issued := 0
		memIssued := false
		stall := stats.StallNone
		blocked := -1          // head slot a failed tryIssue left behind
		var blockedRetry int64 // earliest cycle its verdict can change (valid with blocked >= 0)
		if memoValid && cycle < memoUntil {
			stall = memoStall
			blocked = memoBlocked
			blockedRetry = memoUntil
		} else {
			memoValid = false
			for issued < c.cfg.Width {
				if c.q.Occupancy() == 0 {
					if issued == 0 && issuedTotal < total {
						stall = stats.StallFetchEmpty
					}
					break
				}
				if !c.q.MayIssue() {
					if issued == 0 && c.q.GateBlocked() {
						stall = stats.StallIQGate
						c.q.NoteGateStall()
					}
					break
				}
				e := c.q.Oldest(0)
				if e.NOOP {
					c.q.PopOldest()
					run.IssuedNOOPs++
					issued++
					continue
				}
				slot := int(e.Payload)
				reason, ok := c.tryIssue(cycle, slot, &memIssued, &run, &fetchStallUntil, &awaitRedirect)
				if !ok {
					if issued == 0 {
						stall = reason
						blocked = slot
						blockedRetry = c.issueRetryAt(cycle, slot)
						if !c.noSkip { // keep the stepped reference engine truly stepped
							memoValid, memoUntil, memoStall, memoBlocked = true, blockedRetry, stall, blocked
						}
					}
					break
				}
				c.q.PopOldest()
				issued++
				issuedTotal++
				if c.slots.op[slot] == isa.OpFence {
					draining = false
				}
			}
		}
		if issued > 2 {
			issued = 2
		}
		run.IssueHist[issued]++
		if issued == 0 && stall != stats.StallNone {
			run.IssueStalls[stall]++
		}

		// ===== Allocate stage (up to AI per cycle, after issue).
		allocs := 0
		if !draining {
			for allocs < c.cfg.IQ.AI && c.fetch.len() > 0 && c.q.Free() > 0 {
				fe := *c.fetch.front()
				if fe.readyAt > cycle {
					break
				}
				c.q.Alloc(cycle, uint64(fe.slot))
				c.fetch.pop()
				allocs++
				if c.slots.op[fe.slot] == isa.OpFence {
					draining = true
					break
				}
			}
		}
		// Drain NOOP injection: the occupancy gate blocks while allocation
		// has nothing to deliver (fence drain, trace end, mispredict
		// redirect, or an instruction-fetch drought). In hardware the
		// front-end would keep allocating (wrong-path) instructions; the
		// NOOPs stand in for them so the gate cannot starve stable
		// instructions indefinitely.
		injected := 0
		if allocs == 0 && c.q.GateBlocked() {
			injected = c.q.InjectNOOPs(cycle)
		}

		// ===== Fetch stage.
		fetched := 0
		if fetchIdx < total && awaitRedirect < 0 && cycle >= fetchStallUntil {
			for f := 0; f < c.cfg.Width && fetchIdx < total && !c.fetch.full(); f++ {
				in := &insts[fetchIdx]
				line := in.PC &^ 63
				if line != lastFetchLine {
					fr := c.mem.FetchInst(cycle, in.PC)
					lastFetchLine = line
					if fr.ReadyCycle > cycle {
						// Miss or port hold: the group arrives later, data
						// via the fill buffer (no array re-read).
						fetchStallUntil = fr.ReadyCycle
						break
					}
				}
				slot := c.slots.alloc(in)
				stop := c.predictAtFetch(cycle, slot, in, &fetchStallUntil, &awaitRedirect)
				c.fetch.push(fbEntry{slot, cycle + int64(c.cfg.FrontDepth)})
				fetchIdx++
				fetched++
				if stop {
					break
				}
			}
		}
		if fetched > 2 {
			fetched = 2
		}
		run.FetchHist[fetched]++

		// ===== Idle-cycle skip. When every stage came up empty the pipeline
		// state is frozen until an external time arrives: the next wheel
		// event, a fetch-stall expiry, a fetch-buffer entry maturing, or a
		// scoreboard/port-hold transition for the blocked head instruction.
		// Jump there, crediting the skipped cycles to the same histogram and
		// stall-attribution counters the stepped loop would have recorded
		// (the attribution is constant across the gap by construction: every
		// time at which it could change bounds the jump).
		//
		// Gate-blocked cycles are excluded: they charge the IQ gate-stall
		// counter per cycle and (when the queue is full) must spin to the
		// watchdog exactly as the stepped engine does. Structural write-port
		// stalls are excluded inside issueRetryAt (they charge per-cycle
		// port contention).
		if issued == 0 && allocs == 0 && injected == 0 && fetched == 0 &&
			stall != stats.StallIQGate && !c.noSkip {
			next := c.wheel.nextAfter(cycle)
			if blocked >= 0 && blockedRetry < next {
				next = blockedRetry
			}
			if !draining && c.fetch.len() > 0 && c.q.Free() > 0 {
				if fe := c.fetch.front(); fe.readyAt > cycle && fe.readyAt < next {
					next = fe.readyAt
				}
			}
			if fetchIdx < total && awaitRedirect < 0 && fetchStallUntil > cycle && fetchStallUntil < next {
				next = fetchStallUntil
			}
			if next > maxCycles+1 {
				next = maxCycles + 1 // a genuine deadlock still trips the watchdog
			}
			if k := next - cycle - 1; k > 0 {
				run.IssueHist[0] += uint64(k)
				if stall != stats.StallNone {
					run.IssueStalls[stall] += uint64(k)
				}
				run.FetchHist[0] += uint64(k)
				cycle += k
			}
		}
	}

	c.now = cycle
	run.Cycles = uint64(cycle - startCycle)
	run.Instructions = uint64(total)
	return c.buildResult(tr.Name, &run, &bases), nil
}

// predictAtFetch consults BP/RSB for control ops, returning whether fetch
// must stop after this instruction (a predicted-wrong path we do not model:
// the trace holds only correct-path instructions, so a misprediction is a
// fetch bubble until the branch resolves at issue). slot is the
// instruction's freshly allocated in-flight slot; a misprediction is
// recorded there for tryIssue's commit half to consume.
func (c *Core) predictAtFetch(cycle int64, slot int, in *trace.Inst, fetchStallUntil *int64, awaitRedirect *int) bool {
	switch in.Op {
	case isa.OpBranch:
		pred := c.bp.PredictBranch(cycle, in.PC)
		if pred != in.Taken {
			c.slots.mispred[slot] = true
			*awaitRedirect = slot
			return true
		}
		// Correctly predicted taken branches end the fetch group (target
		// fetch continues next cycle).
		return in.Taken
	case isa.OpCall:
		c.bp.PushCall(cycle, in.PC+4)
		return true
	case isa.OpReturn:
		tgt, stallCycles, conflict := c.bp.PredictReturn(cycle)
		if stallCycles > 0 {
			*fetchStallUntil = cycle + int64(stallCycles)
		}
		if conflict || tgt != in.Addr {
			c.bp.NoteReturnMispredict()
			c.slots.mispred[slot] = true
			*awaitRedirect = slot
			return true
		}
		return true
	}
	return false
}

// tryIssue attempts to issue the instruction in the given in-flight slot at
// cycle; on failure it returns the stall attribution.
func (c *Core) tryIssue(cycle int64, slot int, memIssued *bool, run *stats.Run,
	fetchStallUntil *int64, awaitRedirect *int) (stats.StallKind, bool) {

	s := &c.slots
	op := s.op[slot]
	r := s.regs[slot]
	src1, src2, dst := r.s1, r.s2, r.dst
	// Source readiness (the scoreboard's shift registers).
	for _, src := range [2]isa.Reg{src1, src2} {
		if src == isa.RegNone {
			continue
		}
		if c.sb.ReadReady(src) {
			continue
		}
		if c.sb.IRAWBlocked(src) {
			if !s.delayed[slot] {
				s.delayed[slot] = true
				run.DelayedByRFIRAW++
			}
			return stats.StallRFIRAW, false
		}
		if c.sb.LongPending(src) {
			return stats.StallMemory, false
		}
		return stats.StallRAW, false
	}
	// Destination (WAW through the baseline view).
	if dst != isa.RegNone && !c.sb.WriteReady(dst) {
		if c.sb.LongPending(dst) {
			return stats.StallMemory, false
		}
		return stats.StallRAW, false
	}
	// Structural: one memory op per cycle; D-side port holds block issue.
	if isa.IsMem(op) {
		if *memIssued {
			return stats.StallStructural, false
		}
		if c.mem.DL0.Busy(cycle) {
			return stats.StallDL0IRAW, false
		}
		if c.mem.DTLB.Busy(cycle) {
			return stats.StallOtherIRAW, false
		}
	}
	// Extra-Bypass write-port FIFO.
	lat := int64(isa.Latency(op))
	if dst != isa.RegNone && c.writePipe > 1 {
		w := cycle + lat + c.bypassLvl
		if w <= c.portBusyUntil {
			c.rf.NotePortContention(c.portBusyUntil + 1 - w)
			return stats.StallStructural, false
		}
	}

	// ---- Commit to issuing: perform reads and effects.
	c.readSources(cycle, src1, src2)

	if isa.IsMem(op) {
		*memIssued = true
	}

	switch {
	case op == isa.OpLoad:
		res := c.mem.Load(cycle, s.addr[slot])
		avail := res.ReadyCycle + lat
		c.produce(cycle, dst, avail)
	case op == isa.OpStore:
		c.seq++
		c.mem.CommitStore(cycle, s.addr[slot], c.seq)
	case isa.LongLatency(op):
		avail := cycle + lat
		c.produceLong(cycle, dst, avail)
	case op == isa.OpBranch:
		c.bp.UpdateBranch(cycle, s.pc[slot], s.taken[slot], s.mispred[slot])
		if s.mispred[slot] {
			*fetchStallUntil = cycle + int64(c.cfg.MispredictPenalty)
			*awaitRedirect = -1
		}
	case op == isa.OpCall, op == isa.OpReturn:
		if s.mispred[slot] {
			*fetchStallUntil = cycle + int64(c.cfg.MispredictPenalty)
			*awaitRedirect = -1
		}
	case dst != isa.RegNone:
		c.produce(cycle, dst, cycle+lat)
	}
	return stats.StallNone, true
}

// issueRetryAt mirrors tryIssue's check sequence — with no side effects —
// and returns the earliest cycle after `cycle` at which the blocked head
// instruction's issue decision, or its stall attribution, could change by
// the passage of time alone. Wheel events (long-latency completions, RF
// writes) are bounded separately by the caller.
//
// Two subtleties keep the skip exact:
//
//   - every register tryIssue consulted bounds the jump, including sources
//     that passed: read readiness is not monotone (the stabilization bubble
//     follows the bypass window), so a passing source can block later and
//     change the attribution;
//   - a failing Extra-Bypass write-port check charges the RF
//     port-contention counter with a per-cycle-varying amount, so those
//     cycles must step singly (return cycle+1).
func (c *Core) issueRetryAt(cycle int64, slot int) int64 {
	s := &c.slots
	next := int64(math.MaxInt64)
	add := func(t int64) {
		if t > cycle && t < next {
			next = t
		}
	}
	r := s.regs[slot]
	for _, src := range [2]isa.Reg{r.s1, r.s2} {
		if src == isa.RegNone {
			continue
		}
		add(c.sb.NextChange(src))
		if !c.sb.ReadReady(src) {
			return next // the blocking source: later checks are not reached
		}
	}
	if dst := r.dst; dst != isa.RegNone && !c.sb.WriteReady(dst) {
		add(c.sb.NextChange(dst))
		return next
	}
	// A passing write view stays passing (no bubble, monotone) until a new
	// producer issues — no candidate needed for the destination.
	if isa.IsMem(s.op[slot]) {
		// memIssued is always false here (nothing issued this cycle).
		if c.mem.DL0.Busy(cycle) {
			// NextFree never jumps a free gap (it walks the contiguous busy
			// run), so every skipped cycle stays DL0-busy: attribution holds.
			add(c.mem.DL0.NextFree(cycle))
			return next
		}
		if c.mem.DTLB.Busy(cycle) {
			// The skip must not outrun a DL0 hold opening mid-gap: fill
			// windows are registered at miss time for future cycles, and
			// tryIssue checks DL0 before the DTLB, so the stepped engine
			// would re-attribute the stall the cycle DL0 turns busy.
			add(c.mem.DL0.NextHeld(cycle, c.mem.DTLB.NextFree(cycle)))
			return next
		}
		// New holds are only registered by accesses, and no access can
		// happen during an idle gap: both ports stay free.
	}
	// Only the Extra-Bypass write-port FIFO can have rejected the issue;
	// its contention accounting is per-cycle, so do not skip.
	return cycle + 1
}

// produce registers a producer whose value is available at `avail`,
// choosing the short (shift-register) or long-latency path.
func (c *Core) produce(cycle int64, dst isa.Reg, avail int64) {
	if dst == isa.RegNone {
		return
	}
	c.seq++
	val := c.seq
	lat := int(avail - cycle)
	bypass := c.bypassLvl
	writePipe := c.writePipe
	w := avail + bypass
	if lat <= c.sb.MaxShortLatency() {
		c.sb.IssueProducer(dst, lat)
		c.regWriteAt[dst] = w
		c.regBypassTill[dst] = w + writePipe - 2
		c.regBypassVal[dst] = val
		c.wheel.push(wake{at: w, kind: wakeRFWrite, reg: dst, val: val})
	} else {
		c.sb.BeginLongLatency(dst)
		c.regWriteAt[dst] = int64(1) << 60 // unknown until the heads-up
		headsUp := avail - int64(c.sb.MaxShortLatency())
		if headsUp <= cycle {
			headsUp = cycle + 1
		}
		c.wheel.push(wake{at: headsUp, kind: wakeLong, reg: dst, avail: avail, val: val})
	}
	if writePipe > 1 {
		c.portBusyUntil = w + writePipe - 1
	}
}

// produceLong is produce for always-long ops (dividers).
func (c *Core) produceLong(cycle int64, dst isa.Reg, avail int64) {
	c.produce(cycle, dst, avail)
}

// readSources models the register reads of an issuing instruction: through
// the bypass network while the value is in flight, from the RF array (next
// cycle, per the pipeline contract) afterwards.
func (c *Core) readSources(cycle int64, src1, src2 isa.Reg) {
	for _, src := range [2]isa.Reg{src1, src2} {
		if src == isa.RegNone {
			continue
		}
		if c.regWriteAt[src] > cycle || cycle <= c.regBypassTill[src] {
			_ = c.regBypassVal[src] // value carried by the bypass network
			continue
		}
		c.rf.Read(cycle+1, src)
	}
}

func (c *Core) buildResult(name string, run *stats.Run, bases *statBases) *Result {
	rfS := subRF(c.rf.Stats(), bases.rf)
	memS := subMem(c.mem.Stats(), bases.mem)
	il0 := subCache(c.mem.IL0.Stats(), bases.il0)
	dl0 := subCache(c.mem.DL0.Stats(), bases.dl0)
	ul1 := subCache(c.mem.UL1.Stats(), bases.ul1)
	itlb := subCache(c.mem.ITLB.Stats(), bases.itlb)
	dtlb := subCache(c.mem.DTLB.Stats(), bases.dtlb)
	bpS := subBP(c.bp.Stats(), bases.bp)

	res := &Result{
		TraceName: name,
		Plan:      c.plan,
		Run:       *run,
		Time:      float64(run.Cycles) * c.plan.CycleTime,

		RFViolations:         c.rf.Array().Stats().ViolationReads - bases.rfv,
		CacheViolations:      c.mem.ViolationReads() - bases.cv,
		CorruptConsumed:      memS.CorruptConsumed,
		IntegrityErrors:      rfS.IntegrityErrors + memS.IntegrityErrors,
		RepairedDestructions: memS.RepairedDestructions,

		BP:   bpS,
		Mem:  memS,
		IL0:  il0,
		DL0:  dl0,
		UL1:  ul1,
		ITLB: itlb,
		DTLB: dtlb,

		NOOPsInjected: c.q.NOOPsInjected - bases.noop,
	}
	res.CorruptConsumed += res.RFViolations // RF violations are consumed reads

	res.Activity.Instructions = run.Instructions
	res.Activity.IL0Accesses = il0.Accesses
	res.Activity.DL0Accesses = dl0.Accesses
	res.Activity.UL1Accesses = ul1.Accesses
	res.Activity.TLBAccesses = itlb.Accesses + dtlb.Accesses
	res.Activity.RFReads = rfS.Reads + rfS.BypassReads
	res.Activity.RFWrites = rfS.Writes
	res.Activity.IQOps = 2 * run.Instructions // alloc + issue per instruction
	res.Activity.BPAccesses = bpS.Predictions + bpS.ReturnPredictions
	res.Activity.ExecOps = run.Instructions
	res.Activity.MemAccesses = ul1.Misses
	return res
}

func subRF(a, b regfile.Stats) regfile.Stats {
	a.Reads -= b.Reads
	a.Writes -= b.Writes
	a.BypassReads -= b.BypassReads
	a.ViolationReads -= b.ViolationReads
	a.IntegrityErrors -= b.IntegrityErrors
	a.PortContentionCycles -= b.PortContentionCycles
	return a
}

func subMem(a, b cache.HierarchyStats) cache.HierarchyStats {
	a.Loads -= b.Loads
	a.Stores -= b.Stores
	a.Fetches -= b.Fetches
	a.TLBWalks -= b.TLBWalks
	a.STableForwards -= b.STableForwards
	a.RepairedDestructions -= b.RepairedDestructions
	a.CorruptConsumed -= b.CorruptConsumed
	a.IntegrityErrors -= b.IntegrityErrors
	a.DL0ReplayStallCycles -= b.DL0ReplayStallCycles
	return a
}

func subCache(a, b cache.Stats) cache.Stats {
	a.Accesses -= b.Accesses
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Fills -= b.Fills
	a.Evictions -= b.Evictions
	a.DirtyEvicts -= b.DirtyEvicts
	a.FillStallCycles -= b.FillStallCycles
	return a
}

func subBP(a, b predictor.Stats) predictor.Stats {
	a.Predictions -= b.Predictions
	a.Mispredicts -= b.Mispredicts
	a.PotentialCorruptions -= b.PotentialCorruptions
	a.ReturnPredictions -= b.ReturnPredictions
	a.ReturnMispredicts -= b.ReturnMispredicts
	a.RSBConflicts -= b.RSBConflicts
	a.RSBStallCycles -= b.RSBStallCycles
	return a
}

// IRAWExtraBits returns the latch bits the IRAW machinery adds: the
// scoreboard extension (bypass+bubble bits per register), the STable, the
// IQ occupancy comparator, and one 2-bit stall counter per cache-like
// block (Section 4.3).
func (c *Core) IRAWExtraBits() int {
	sbBits := c.cfg.Scoreboard.Regs * c.sb.ExtraBits
	stBits := c.mem.STab.Bits()
	iqBits := 12 // threshold adder + comparator state (Figure 9)
	counterBits := 7 * 2
	return sbBits + stBits + iqBits + counterBits
}

// TotalSRAMBits returns the core's SRAM capacity for area accounting.
func (c *Core) TotalSRAMBits() int {
	iqBits := c.cfg.IQ.Size * 64 // queue payload per entry
	return c.mem.TotalBits() + c.rf.TotalBits() + iqBits +
		c.bp.CounterBits() + c.bp.RSBBits()
}

// Mem exposes the memory hierarchy (examples and tests).
func (c *Core) Mem() *cache.Hierarchy { return c.mem }

// BP exposes the predictor (examples and tests).
func (c *Core) BP() *predictor.Predictor { return c.bp }

// RF exposes the register file (examples and tests).
func (c *Core) RF() *regfile.File { return c.rf }
