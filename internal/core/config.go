// Package core assembles the paper's contribution: a Silverthorne-like
// two-wide in-order pipeline whose SRAM blocks (RF, IQ, IL0, DL0, UL1,
// TLBs, WCB/EB, FB, BP, RSB) run at logic speed at low Vcc by interrupting
// writes early and avoiding immediate reads after writes, per-structure as
// described in Sections 3 and 4.
//
// A Core is built for one (voltage, mode) operating point, runs traces, and
// reports cycle counts, stall attribution, violation counters and the
// activity census for the energy model. The DVFS reconfiguration of
// Section 4.1.3/4.2/4.4 is exercised via Reconfigure.
//
// # The event-driven engine
//
// Run models a strictly cycle-stepped pipeline but executes event-driven;
// its Results are bit-identical to stepping every cycle (held together by
// a recorded-golden test and an equivalence fuzz against the noSkip
// stepped mode). Three mechanisms carry the loop:
//
//   - Timing wheel (wheel.go). Deferred events — long-latency completion
//     heads-ups and pipelined register-file writes — live in a 64-bucket
//     wheel indexed by due-cycle mod 64, replacing the seed engine's
//     per-cycle linear scan over all pending events. Dispatch touches only
//     the current bucket; far-future events wait in place across laps.
//
//   - Lazy scoreboard (internal/scoreboard). Registers store their
//     initialization patterns plus an issue stamp instead of physically
//     shifting every cycle; views are computed from the elapsed cycle
//     count, and AdvanceTo moves time in one jump. NextChange exposes the
//     next self-inflicted readiness flip — the event-driven loop's bound
//     for how far it may skip while an instruction waits on a register.
//
//   - Idle-cycle skipping. When a cycle ends with nothing issued,
//     allocated, fetched or injected, the pipeline state is frozen until
//     an external time arrives: the next wheel event, the fetch-stall
//     expiry, the front of the fetch buffer maturing, a scoreboard flip or
//     a port-hold release for the blocked head instruction (issueRetryAt
//     mirrors tryIssue's exact check order to find it). The loop jumps
//     there directly. Attribution is preserved because the jump target is
//     the minimum over every time at which the stall reason could change,
//     so the skipped cycles are credited to the same IssueHist/IssueStalls
//     /FetchHist counters the stepped loop would have recorded, in the
//     same amounts. Cycles whose stall charges per-cycle side effects
//     (the IQ occupancy gate, Extra-Bypass write-port contention) are
//     never skipped. A blocked-head memo extends the same reasoning to
//     busy cycles: while fetch/allocate progress but the IQ head stays
//     blocked and no wake dispatches, the issue stage reuses the recorded
//     verdict instead of re-deriving it.
//
// The IQ needs no "next event" hook (its gate depends only on occupancy,
// which only pipeline actions change), and neither does the predictor (its
// RSB stalls are already routed through the fetch-stall time); the caches
// expose NextFree for the port-hold windows the issue stage polls.
//
// # Functional warm-up replay
//
// RunWindow executes one sample window of a sharded long trace: a warm-up
// prefix whose statistics are discarded, then the measured span. The prefix
// is replayed functionally through WarmReplay — not simulated, so a prefix
// can grow to a window's entire history at a fraction of simulation cost —
// under the hierarchy's timing-independent access-order contract (see
// internal/cache): one instruction-fetch touch per 64-byte line transition,
// one data touch per load or store, one predictor update per control
// instruction, all timing-free. The invariants that make the handoff sound:
//
//   - warm state is a pure function of the instruction sequence —
//     independent of clock plan, Vcc, IRAW mode and the cycle the replay
//     runs at (equivalence-tested across operating points);
//   - every warm write lands settled: no stabilization window, port hold,
//     in-flight fill or STable entry reaches into the measured span, and
//     the predictor's warm writes carry no stabilization stamp;
//   - nothing timing-visible moves: no cycles elapse, no statistics
//     change, and the timed engine takes over at the next cycle with the
//     pipeline cold (the same few-cycle ramp any trace head pays);
//   - WarmReplay(tr, 0) is a no-op, so RunWindow(tr, 0) is exactly Run(tr)
//     — warm=0 windows stay bit-identical to the unsharded engine.
//
// The replay trains predictor direction state exactly (training depends
// only on resolved outcomes, never on timing) and cache/TLB/LRU/dirty
// state in access order; what it cannot reproduce is timing-dependent
// interleaving (MSHR merges, fill-completion ordering), which is the low
// single-digit residual the sharding-bias golden test bounds.
//
// # Warm-state checkpoints
//
// Because warm state is a pure function of the instruction sequence, it can
// be captured once and restored instead of replayed: CaptureWarm serializes
// a never-run core's functional warm state (cache/TLB arrays, predictor
// tables) into an immutable WarmState, and RestoreWarm loads one into a
// freshly reset core in O(state size) — turning an O(prefix length) window
// start into a near-constant one. The contract the checkpoint layer relies
// on:
//
//   - capture requires c.now == 0 and refuses any timed residue (elapsed
//     cycles, holds, in-flight fills, stabilization stamps), so a snapshot
//     can only ever hold access-order state;
//   - snapshots are canonical (LRU ticks renumbered by rank, derived
//     summaries recomputed on restore), so the same prefix produces
//     byte-identical snapshots however its replay was segmented;
//   - snapshots are Vcc- and mode-independent — one snapshot per (trace,
//     warm-relevant config, boundary) serves every operating point of a
//     sweep, shared read-only across cores and workers;
//   - fault maps are not serialized: reset reinstalls them
//     deterministically from (Seed, FaultySigma), so they key the snapshot,
//     and RestoreWarm rejects a snapshot whose valid entries collide with a
//     disabled line;
//   - restore + WarmReplayRange of the residual tail + RunWarmed yields
//     Results bit-identical to a continuous WarmReplay + RunWarmed
//     (fuzz-tested by internal/ckpt and internal/sim).
//
// internal/ckpt builds the content-addressed store on these primitives;
// internal/sim routes sharded windows through it by default.
//
// # Struct-of-arrays slot state and issue width
//
// The in-flight instruction state (fetched but not yet issued) is held
// struct-of-arrays: parallel slices for opcode, register operands,
// address, PC, branch outcome and the per-instruction census flags,
// indexed by a ring-allocated slot id (see slotArrays in core.go for the
// lifetime invariants). The issue stage walks the IQ head in order, one
// slot at a time, through the same scoreboard register checks that derive
// its stall attribution; there is one issue path at every width, and the
// recorded goldens pin widths 1 through 4.
//
// Config.Width is a real 1..MaxWidth axis: it sizes the fetch group, the
// fetch buffer (8 entries per width step) and the per-cycle issue bound.
// Width must not exceed IQ.ICI (the hardware reads only the ICI oldest
// IQ slots); DefaultConfigWidth widens the IQ defaults alongside the
// width so any 1..MaxWidth point is one call away. The IssueHist and
// FetchHist histogram shapes are unchanged: cycles that move more than
// two instructions fold into bucket 2 (the histograms' role — the
// issue-0/issue-some split for stall accounting — does not need wider
// buckets, and recorded goldens stay comparable). Warm state is
// width-independent (the functional replay never consults Width), so
// warm-state checkpoints are shared across a width sweep's points.
package core

import (
	"fmt"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/iq"
	"lowvcc/internal/predictor"
	"lowvcc/internal/scoreboard"
)

// EngineVersion identifies the simulation semantics for result caching:
// any change that can alter a simulated Result for the same (config,
// trace) input — timing model, stall attribution, stat definitions — must
// bump it. internal/journal keys cached cell results by it, so a bump
// invalidates every previously journaled entry at once instead of
// replaying stale numbers.
const EngineVersion = "lowvcc-engine-8"

// Config describes one simulated operating point.
type Config struct {
	// Vcc is the supply level; Mode selects the design (baseline, IRAW,
	// faulty bits, extra bypass).
	Vcc  circuit.Millivolts
	Mode circuit.Mode

	// Width is the fetch/issue width, in [1, MaxWidth] (2 for the
	// modelled core). It must not exceed IQ.ICI — the issue stage reads
	// only the ICI oldest IQ slots; DefaultConfigWidth keeps the two in
	// step.
	Width int

	Scoreboard scoreboard.Config
	IQ         iq.Config
	Hierarchy  cache.HierarchyConfig
	Predictor  predictor.Config

	// Circuit overrides the delay-model calibration (nil = default).
	Circuit *circuit.Params

	// MemLatencyTime is the off-chip latency in time units (one clock
	// phase at 700 mV = 1.0); it is constant across voltage, reproducing
	// Section 5.2's effect (i).
	MemLatencyTime float64

	// MispredictPenalty is the fetch-redirect bubble in cycles.
	MispredictPenalty int

	// FrontDepth is the fetch-to-allocate depth in cycles.
	FrontDepth int

	// ForcedN overrides the stabilization cycle count when positive
	// (the N-sweep ablation).
	ForcedN int

	// DisableAvoidance turns off every avoidance mechanism while keeping
	// interrupted writes: the unsafe validation mode, in which the sram
	// substrate must report violations.
	DisableAvoidance bool

	// FaultySigma is the reduced margin of the Faulty-Bits design.
	FaultySigma float64

	// CombineFaultyBits, with ModeIRAW, additionally re-margins the
	// interrupted write path to FaultySigma and installs fault maps — the
	// Section 4.4 combination for even higher frequency.
	CombineFaultyBits bool

	// Seed drives fault-map generation and any other stochastic state.
	Seed uint64

	// MaxCycles guards against pipeline deadlock (0 = automatic bound).
	MaxCycles int64
}

// AppliedPlan returns the clock plan a core built for cfg runs at: the
// design mode's plan at cfg.Vcc under the mode's knobs (ForcedN,
// CombineFaultyBits, FaultySigma) and cfg's circuit calibration. Besides
// the fault maps (InstallsFaultMaps), the plan is everything a mode
// changes in the timed engine; DisableAvoidance matters only while
// IRAWActive. It returns New's error for a config New rejects.
func AppliedPlan(cfg Config) (circuit.ClockPlan, error) {
	if err := cfg.validate(); err != nil {
		return circuit.ClockPlan{}, err
	}
	return cfg.planOn(cfg.model()), nil
}

// InstallsFaultMaps reports whether a core built for cfg disables the
// cache lines that fail timing at the reduced margin: the Faulty-Bits
// design, and IRAW combined with it (Section 4.4). The maps derive from
// (Seed, FaultySigma).
func InstallsFaultMaps(cfg Config) bool {
	return cfg.Mode == circuit.ModeFaultyBits ||
		(cfg.Mode == circuit.ModeIRAW && cfg.CombineFaultyBits)
}

// params is c's circuit calibration: the default unless Circuit overrides
// it.
func (c Config) params() circuit.Params {
	if c.Circuit != nil {
		return *c.Circuit
	}
	return circuit.DefaultParams()
}

// model builds c's circuit model.
func (c Config) model() *circuit.Model { return circuit.NewModel(c.params()) }

// planOn is AppliedPlan on an already-built model of c's calibration.
func (c Config) planOn(m *circuit.Model) circuit.ClockPlan {
	switch c.Mode {
	case circuit.ModeIRAW:
		switch {
		case c.CombineFaultyBits:
			return m.PlanIRAWFaultyBits(c.Vcc, c.FaultySigma)
		case c.ForcedN > 0:
			return m.PlanIRAWForcedN(c.Vcc, c.ForcedN)
		default:
			return m.PlanIRAW(c.Vcc)
		}
	case circuit.ModeFaultyBits:
		return m.PlanFaultyBits(c.Vcc, c.FaultySigma)
	default:
		return m.Plan(c.Vcc, c.Mode)
	}
}

// MaxWidth is the largest fetch/issue width the engine models.
const MaxWidth = 4

// DefaultConfig returns the modelled core at the given operating point.
func DefaultConfig(v circuit.Millivolts, mode circuit.Mode) Config {
	return Config{
		Vcc:               v,
		Mode:              mode,
		Width:             2,
		Scoreboard:        scoreboard.DefaultConfig(),
		IQ:                iq.DefaultConfig(),
		Hierarchy:         cache.DefaultHierarchyConfig(),
		Predictor:         predictor.DefaultConfig(),
		MemLatencyTime:    240, // ~120 cycles at the 700 mV logic clock
		MispredictPenalty: 11,
		FrontDepth:        3,
		FaultySigma:       4,
		Seed:              1,
	}
}

// DefaultConfigWidth returns DefaultConfig widened (or narrowed) to the
// given fetch/issue width, raising the IQ's ICI and AI to match so the
// wider front end can actually be fed and issued. Width 2 returns exactly
// DefaultConfig, so journal keys and recorded goldens for the modelled
// core are unchanged.
func DefaultConfigWidth(v circuit.Millivolts, mode circuit.Mode, width int) Config {
	cfg := DefaultConfig(v, mode)
	cfg.Width = width
	if width > cfg.IQ.ICI {
		cfg.IQ.ICI = width
	}
	if width > cfg.IQ.AI {
		cfg.IQ.AI = width
	}
	return cfg
}

func (c Config) validate() error {
	if !c.Vcc.Valid() {
		return fmt.Errorf("core: invalid Vcc %v", c.Vcc)
	}
	if c.Width < 1 || c.Width > MaxWidth {
		return fmt.Errorf("core: width %d must be in [1, %d]", c.Width, MaxWidth)
	}
	if c.Width > c.IQ.ICI {
		return fmt.Errorf("core: width %d exceeds IQ.ICI=%d (the issue stage reads only the ICI oldest IQ slots); raise IQ.ICI/AI or build the config with DefaultConfigWidth", c.Width, c.IQ.ICI)
	}
	if c.MemLatencyTime <= 0 {
		return fmt.Errorf("core: MemLatencyTime must be positive")
	}
	if c.MispredictPenalty < 1 || c.FrontDepth < 1 {
		return fmt.Errorf("core: penalties must be positive")
	}
	// Sub-block configurations are user input at this boundary: reject them
	// with errors here so the constructors' invariant panics stay
	// unreachable through New.
	if err := c.Scoreboard.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.IQ.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Predictor.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Circuit != nil {
		if err := c.Circuit.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.Mode < circuit.ModeBaseline || c.Mode > circuit.ModeExtraBypass {
		return fmt.Errorf("core: unknown mode %v", c.Mode)
	}
	if maxN := c.params().MaxStabilizeCycles; c.ForcedN < 0 || c.ForcedN > maxN {
		return fmt.Errorf("core: ForcedN %d out of range [0, %d]", c.ForcedN, maxN)
	}
	return nil
}
