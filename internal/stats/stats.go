// Package stats defines the performance counters of a simulated run and the
// stall-attribution taxonomy used to reproduce the paper's Section 5.2
// breakdown (issue stalls from RF IRAW avoidance vs. DL0 vs. the remaining
// blocks).
package stats

import "fmt"

// StallKind attributes a cycle in which the issue stage made no progress.
type StallKind int

const (
	// StallNone is a sentinel for "no stall" (never counted).
	StallNone StallKind = iota
	// StallRFIRAW: the oldest instruction's source is available but its RF
	// entry is still stabilizing (the scoreboard bubble) — the dominant
	// cost in the paper (8.52% of 8.86% at 575 mV).
	StallRFIRAW
	// StallIQGate: the occupancy gate (Section 4.2) blocked issue.
	StallIQGate
	// StallDL0IRAW: the DL0 ports were held by a fill-stabilization window
	// or a Store-Table replay (Section 4.4).
	StallDL0IRAW
	// StallOtherIRAW: port holds on IL0, UL1, TLBs, FB or WCB/EB
	// (Section 4.3) blocked the oldest instruction or fetch.
	StallOtherIRAW
	// StallRAW: a source value is genuinely not produced yet (baseline
	// dependency stall, present in every design).
	StallRAW
	// StallMemory: the oldest instruction waits on a long-latency value
	// (load miss, divider).
	StallMemory
	// StallStructural: an execution resource or write port was busy.
	StallStructural
	// StallFetchEmpty: the IQ ran dry (fetch could not keep up: I-misses,
	// mispredict redirects).
	StallFetchEmpty
	// StallDrain: cycles spent draining with injected NOOPs.
	StallDrain
	numStallKinds
)

// NumStallKinds is the number of attribution categories.
const NumStallKinds = int(numStallKinds)

var stallNames = [NumStallKinds]string{
	"none", "rf-iraw", "iq-gate", "dl0-iraw", "other-iraw",
	"raw", "memory", "structural", "fetch-empty", "drain",
}

// String implements fmt.Stringer.
func (k StallKind) String() string {
	if int(k) < NumStallKinds {
		return stallNames[k]
	}
	return fmt.Sprintf("StallKind(%d)", int(k))
}

// IRAWKinds lists the attribution categories introduced by IRAW avoidance
// (the ones the paper charges to the mechanism).
func IRAWKinds() []StallKind {
	return []StallKind{StallRFIRAW, StallIQGate, StallDL0IRAW, StallOtherIRAW}
}

// Run accumulates one simulation's counters.
type Run struct {
	Instructions uint64
	Cycles       uint64
	// IssueStalls[k] counts cycles whose issue stall was attributed to k.
	IssueStalls [NumStallKinds]uint64
	// DelayedByRFIRAW counts distinct instructions whose issue was delayed
	// by the scoreboard bubble (the paper's 13.2% statistic).
	DelayedByRFIRAW uint64
	// IssuedNOOPs counts drain NOOPs issued (not program instructions).
	IssuedNOOPs uint64
	// IssueHist[k] counts cycles that issued k instructions; FetchHist
	// likewise for fetched instructions. The histograms keep the modelled
	// dual-issue shape at every width: bucket 2 means "2 or more", so cores
	// wider than 2 fold their 3- and 4-issue cycles into it. That keeps Run
	// comparable (and bit-identical at width 2) across the whole width axis
	// rather than resizing with core.Config.Width.
	IssueHist [3]uint64
	FetchHist [3]uint64
}

// IPC returns instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// StallFraction returns the fraction of cycles attributed to kind k.
func (r *Run) StallFraction(k StallKind) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.IssueStalls[k]) / float64(r.Cycles)
}

// IRAWStallFraction sums the IRAW-attributed stall fractions.
func (r *Run) IRAWStallFraction() float64 {
	var total float64
	for _, k := range IRAWKinds() {
		total += r.StallFraction(k)
	}
	return total
}

// DelayedFraction returns the fraction of instructions delayed by RF IRAW
// avoidance.
func (r *Run) DelayedFraction() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.DelayedByRFIRAW) / float64(r.Instructions)
}

// Add accumulates other into r (suite aggregation).
func (r *Run) Add(other *Run) {
	r.Instructions += other.Instructions
	r.Cycles += other.Cycles
	for k := range r.IssueStalls {
		r.IssueStalls[k] += other.IssueStalls[k]
	}
	r.DelayedByRFIRAW += other.DelayedByRFIRAW
	r.IssuedNOOPs += other.IssuedNOOPs
	for k := range r.IssueHist {
		r.IssueHist[k] += other.IssueHist[k]
		r.FetchHist[k] += other.FetchHist[k]
	}
}
