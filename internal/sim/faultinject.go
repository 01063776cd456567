package sim

// Fault injection for the resilience layer — test and development only.
// A FaultPlan attached via Runner.Faults deterministically injects
// failures at the two places the layer must defend: window execution
// (panics, permanent and transient errors, artificial slowness, process
// death) and journal writes (torn/truncated entries). Rules match by cell
// identity — spec label, trace name, window index — never by timing, so a
// plan injects the same faults for any worker count or schedule; keep
// per-rule Times budgets on rules that pin one exact cell if that
// determinism matters to the test.

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// FaultKind selects what an injected fault does.
type FaultKind uint8

const (
	// FaultPanic panics inside the window job — exercises the recover()
	// isolation path exactly like a real engine bug would.
	FaultPanic FaultKind = iota + 1
	// FaultError fails the window with a permanent (non-retryable) error.
	FaultError
	// FaultTransient fails the window with a transient error, which the
	// runner's retry policy may retry.
	FaultTransient
	// FaultDelay sleeps Delay before running the window normally —
	// artificial slowness for timeout and progress testing.
	FaultDelay
	// FaultTruncateJournal truncates the cell's journal entry mid-write
	// (journal.PutTruncated), simulating a crash that tore the write.
	FaultTruncateJournal
	// FaultExit terminates the process with ExitCode (default 3) — the
	// process-level crash for kill -9 resume tests. Never fires outside a
	// test binary's child process by construction of the plan.
	FaultExit
	// Network faults, matched by TakeNet at the worker↔daemon call sites
	// (service.ChaosSource). They select by cell identity and — via
	// FaultRule.Op — by protocol call, never by timing.
	//
	// FaultNetDrop fails one call with a transport error: the request (or
	// its response) is lost on the wire. The caller's retry policy decides
	// what happens next; a dropped Complete response is the canonical
	// double-count hazard the daemon's dedup must absorb.
	FaultNetDrop
	// FaultNetDelay sleeps Delay before the call proceeds — a slow or
	// congested link for timeout testing.
	FaultNetDelay
	// FaultNetDup delivers the call twice: the duplicate's result is
	// discarded, exercising daemon-side idempotency.
	FaultNetDup
	// FaultNetSever partitions the worker from the daemon for the rest of
	// the matched cell's lease: every subsequent call on that lease fails
	// until the worker abandons the cell. The lease expires daemon-side
	// and the cell requeues.
	FaultNetSever
)

func (k FaultKind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultError:
		return "error"
	case FaultTransient:
		return "transient"
	case FaultDelay:
		return "delay"
	case FaultTruncateJournal:
		return "truncate-journal"
	case FaultExit:
		return "exit"
	case FaultNetDrop:
		return "net-drop"
	case FaultNetDelay:
		return "net-delay"
	case FaultNetDup:
		return "net-dup"
	case FaultNetSever:
		return "net-sever"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// FaultRule matches cells and describes the fault to inject.
type FaultRule struct {
	// Label and TraceName select cells ("" matches any). Window selects a
	// window index within the cell (-1 matches any; unsharded cells run as
	// window 0). FaultTruncateJournal matches at journal-write time, where
	// no window applies.
	Label     string
	TraceName string
	Window    int

	// Op narrows network faults to one protocol call — "acquire",
	// "heartbeat" or "complete" ("" matches any). Ignored by non-network
	// kinds.
	Op string

	Kind FaultKind

	// Times bounds how often the rule fires (0 = unlimited). Retries of
	// one window re-match the plan, so Times=1 on a FaultTransient rule
	// means "fail the first attempt, let the retry through".
	Times int

	// Delay is FaultDelay's sleep.
	Delay time.Duration

	// ExitCode is FaultExit's status (0 means 3, so a zero-value rule
	// still exits visibly non-zero).
	ExitCode int
}

// FaultPlan is a deterministic set of fault rules. Safe for concurrent use
// by the runner's workers.
type FaultPlan struct {
	mu    sync.Mutex
	rules []FaultRule
	fired []int
}

// NewFaultPlan builds a plan from rules.
func NewFaultPlan(rules ...FaultRule) *FaultPlan {
	return &FaultPlan{rules: rules, fired: make([]int, len(rules))}
}

// take returns the first live rule matching (op, label, trace, window)
// whose kind passes filter, consuming one firing from its budget.
func (p *FaultPlan) take(op, label, traceName string, window int, filter func(FaultKind) bool) *FaultRule {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.rules {
		r := &p.rules[i]
		if !filter(r.Kind) {
			continue
		}
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.Label != "" && r.Label != label {
			continue
		}
		if r.TraceName != "" && r.TraceName != traceName {
			continue
		}
		if r.Window >= 0 && window >= 0 && r.Window != window {
			continue
		}
		if r.Times > 0 && p.fired[i] >= r.Times {
			continue
		}
		p.fired[i]++
		rc := *r
		return &rc
	}
	return nil
}

// isNetFault reports whether k is one of the network fault kinds.
func isNetFault(k FaultKind) bool {
	return k == FaultNetDrop || k == FaultNetDelay || k == FaultNetDup || k == FaultNetSever
}

// takeWindow matches execution-time faults for one window attempt.
func (p *FaultPlan) takeWindow(label, traceName string, window int) *FaultRule {
	return p.take("", label, traceName, window, func(k FaultKind) bool {
		return k != FaultTruncateJournal && !isNetFault(k)
	})
}

// takeJournal matches journal-write faults for one completed cell.
func (p *FaultPlan) takeJournal(label, traceName string) *FaultRule {
	return p.take("", label, traceName, -1, func(k FaultKind) bool { return k == FaultTruncateJournal })
}

// TakeNet matches network faults for one protocol call (op is "acquire",
// "heartbeat" or "complete") touching the cell identified by (label,
// traceName). It consumes one firing from the matched rule's budget and
// is exported for the service layer's chaos wrapper; simulation code
// never calls it.
func (p *FaultPlan) TakeNet(op, label, traceName string) *FaultRule {
	return p.take(op, label, traceName, -1, isNetFault)
}

// injectedError is the error FaultError/FaultTransient produce.
type injectedError struct {
	label, traceName string
	window           int
	transient        bool
}

func (e *injectedError) Error() string {
	kind := "permanent"
	if e.transient {
		kind = "transient"
	}
	return fmt.Sprintf("sim: injected %s fault in %s %s window %d", kind, e.label, e.traceName, e.window)
}

// Transient marks the error retryable for the runner's retry policy.
func (e *injectedError) Transient() bool { return e.transient }

// apply executes an execution-time fault. It returns a non-nil error for
// FaultError/FaultTransient, panics for FaultPanic, exits for FaultExit,
// sleeps and returns nil for FaultDelay.
func (r *FaultRule) apply(label, traceName string, window int) error {
	switch r.Kind {
	case FaultPanic:
		panic(fmt.Sprintf("sim: injected panic in %s %s window %d", label, traceName, window))
	case FaultExit:
		code := r.ExitCode
		if code == 0 {
			code = 3
		}
		os.Exit(code)
	case FaultDelay:
		time.Sleep(r.Delay)
	case FaultError:
		return &injectedError{label: label, traceName: traceName, window: window}
	case FaultTransient:
		return &injectedError{label: label, traceName: traceName, window: window, transient: true}
	}
	return nil
}
