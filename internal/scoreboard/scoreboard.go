// Package scoreboard implements the readiness-control logic of the in-order
// issue stage (Section 4.1): one shift register per logical register, with
// the IRAW-avoidance extension that inserts a stabilization bubble between
// the bypass window and register-file readability.
//
// A producer of latency L issued with B-bit registers sets, from the most
// significant bit: L zeros, then (IRAW mode) `bypass` ones, N zeros, and
// ones to fill — e.g. 0001011 for L=3, bypass=1, N=1 (Figure 8). Registers
// shift left one position per cycle, replicating the least significant bit.
// A consumer may issue only while the MSB of each source's register is 1:
// exactly the cycles in which the value is reachable through the bypass
// network or, later, readable from stabilized bitcells — never the cycles
// in which the RF entry is still stabilizing.
//
// The scoreboard tracks two views per register:
//
//   - the read view (IRAW-extended pattern) gating consumers, and
//   - the write view (baseline pattern, no bubble) gating writers (WAW);
//     overwriting a stabilizing entry is safe (Section 4.4), so writers do
//     not wait out the bubble.
//
// # Representation
//
// The hardware shifts every register each cycle; simulating that literally
// costs O(registers) per cycle even when the pipeline is stalled. This
// implementation is lazy: each register stores its initialization patterns
// and the scoreboard time at which they were set (`stamp`), and every view
// is computed on demand from the elapsed shift count `now - stamp`. Shift
// (or the bulk AdvanceTo) therefore only advances a clock, and the
// Pattern/Figure 8 semantics — including the stabilization bubble — remain
// the observable contract: ReadView reconstructs the exact register value
// the shifting hardware would hold. NextChange exposes, for the
// event-driven pipeline, the next cycle at which a register's readiness can
// change without an external completion event.
package scoreboard

import (
	"fmt"
	"math"
	"math/bits"

	"lowvcc/internal/isa"
)

// Config sizes the scoreboard.
type Config struct {
	// Regs is the number of logical registers tracked.
	Regs int
	// Bits is the shift-register width B. Producers of latency up to
	// B-1-bypass-maxN use the in-register path; longer ones use the
	// long-latency event path (Section 4.1.1).
	Bits int
	// BypassLevels is the depth of the bypass network (ones inserted after
	// the latency zeros in IRAW mode).
	BypassLevels int
}

// DefaultConfig matches the modelled Silverthorne-like core: 16 logical
// registers, 12-bit shift registers, one bypass level.
func DefaultConfig() Config {
	return Config{Regs: isa.NumRegs, Bits: 12, BypassLevels: 1}
}

// regState is one register's lazy shift-register pair: the read/write
// patterns as initialized, plus the scoreboard time they were set at. The
// value after k = now - stamp cycles is the pattern shifted left k times
// with LSB replication — computed on demand, never stored.
type regState struct {
	read  uint32 // IRAW-extended pattern (bit cfg.Bits-1 is MSB) at stamp
	write uint32 // baseline pattern (value-availability only) at stamp
	stamp int64  // scoreboard time the patterns were installed
	// longPending marks a register whose producer's completion will be
	// signalled by an event (load miss, divider) rather than the register.
	longPending bool
}

// Scoreboard is the per-register readiness tracker. Not goroutine-safe.
type Scoreboard struct {
	cfg Config
	n   int   // current stabilization cycles (0 = IRAW avoidance off)
	now int64 // scoreboard time: total shifts since New

	regs []regState

	// patterns caches Pattern(latency) for the current n, indexed by
	// latency (entry 0 unused): producers issue on the hot path and the
	// pattern for a given (latency, n) never changes between
	// reconfigurations.
	patterns []uint32

	// ExtraBits is the per-register storage added by the IRAW extension
	// (bypass + max bubble), for the area/energy accounting.
	ExtraBits int
}

// Validate reports whether the configuration is structurally usable. New
// panics on the same conditions (an invariant backstop), so API boundaries
// that accept user-supplied configs — core.New — check here first and
// return the error instead.
func (cfg Config) Validate() error {
	if cfg.Regs <= 0 || cfg.Bits <= 1 || cfg.Bits > 31 || cfg.BypassLevels < 0 {
		return fmt.Errorf("scoreboard: invalid config %+v", cfg)
	}
	return nil
}

// New returns a scoreboard with every register ready.
func New(cfg Config) *Scoreboard {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	sb := &Scoreboard{
		cfg:       cfg,
		regs:      make([]regState, cfg.Regs),
		ExtraBits: cfg.BypassLevels + 1, // bubble sized for N up to MaxN=1 per level change
	}
	all := sb.allOnes()
	for r := range sb.regs {
		sb.regs[r] = regState{read: all, write: all}
	}
	sb.rebuildPatterns()
	return sb
}

// rebuildPatterns refreshes the pattern cache for the current n.
func (sb *Scoreboard) rebuildPatterns() {
	max := sb.MaxShortLatency()
	if cap(sb.patterns) < max+1 {
		sb.patterns = make([]uint32, max+1)
	}
	sb.patterns = sb.patterns[:max+1]
	for lat := 1; lat <= max; lat++ {
		sb.patterns[lat] = sb.buildPattern(lat)
	}
}

// Config returns the scoreboard configuration.
func (sb *Scoreboard) Config() Config { return sb.cfg }

func (sb *Scoreboard) allOnes() uint32 { return (1 << sb.cfg.Bits) - 1 }

// SetStabilizeCycles reconfigures the stabilization bubble N for the
// current Vcc level (Section 4.1.3). N = 0 disables IRAW avoidance: the
// shift registers are then initialized exactly as in the baseline.
func (sb *Scoreboard) SetStabilizeCycles(n int) {
	if n < 0 || n > sb.MaxN() {
		panic(fmt.Sprintf("scoreboard: N=%d out of range [0,%d]", n, sb.MaxN()))
	}
	sb.n = n
	sb.rebuildPatterns()
}

// StabilizeCycles returns the configured bubble width N.
func (sb *Scoreboard) StabilizeCycles() int { return sb.n }

// MaxN is the largest bubble the register width can accommodate alongside a
// single-cycle producer and the bypass window.
func (sb *Scoreboard) MaxN() int { return sb.cfg.Bits - 1 - sb.cfg.BypassLevels - 1 }

// MaxShortLatency is the largest producer latency the shift register can
// express with the current bubble; longer producers must use the
// long-latency path.
func (sb *Scoreboard) MaxShortLatency() int {
	if sb.n == 0 {
		return sb.cfg.Bits - 1
	}
	return sb.cfg.Bits - 1 - sb.cfg.BypassLevels - sb.n
}

// Pattern returns the initialization value for a producer of the given
// latency under the current mode, MSB at bit Bits-1. Exposed for tests and
// the documentation tooling. Served from the per-n cache.
func (sb *Scoreboard) Pattern(latency int) uint32 {
	if latency < 1 || latency > sb.MaxShortLatency() {
		panic(fmt.Sprintf("scoreboard: latency %d outside short range [1,%d]", latency, sb.MaxShortLatency()))
	}
	return sb.patterns[latency]
}

// buildPattern constructs Pattern(latency) from the Figure 8 recipe.
func (sb *Scoreboard) buildPattern(latency int) uint32 {
	bits := make([]byte, 0, sb.cfg.Bits)
	for i := 0; i < latency; i++ {
		bits = append(bits, 0) // (I) producer execution
	}
	if sb.n > 0 {
		for i := 0; i < sb.cfg.BypassLevels; i++ {
			bits = append(bits, 1) // (II) bypass window
		}
		for i := 0; i < sb.n; i++ {
			bits = append(bits, 0) // (III) stabilization bubble
		}
	}
	for len(bits) < sb.cfg.Bits {
		bits = append(bits, 1) // (IV) ready thereafter
	}
	var v uint32
	for _, b := range bits { // bits[0] is the MSB
		v = v<<1 | uint32(b)
	}
	return v
}

// basePattern is the baseline (no-bubble) pattern for the write view.
func (sb *Scoreboard) basePattern(latency int) uint32 {
	return sb.allOnes() >> latency
}

// Shift advances every register by one cycle: shift left, replicate LSB.
// Call once at each cycle boundary before issue decisions. With the lazy
// representation this is a clock tick — views are derived on read.
func (sb *Scoreboard) Shift() { sb.now++ }

// AdvanceTo moves the scoreboard clock directly to time t (equivalent to
// t - Now() consecutive Shifts), the bulk path the event-driven pipeline
// uses when it skips idle cycles. Time never moves backwards.
func (sb *Scoreboard) AdvanceTo(t int64) {
	if t > sb.now {
		sb.now = t
	}
}

// Now returns the scoreboard time (total shifts since New).
func (sb *Scoreboard) Now() int64 { return sb.now }

// shiftedView reconstructs a pattern's register value after k shifts: the
// pattern shifted left with its LSB replicated into the vacated positions,
// exactly what the shifting hardware holds.
func (sb *Scoreboard) shiftedView(pat uint32, k int64) uint32 {
	if k <= 0 {
		return pat
	}
	if k > int64(sb.cfg.Bits) {
		k = int64(sb.cfg.Bits)
	}
	v := (uint64(pat) << uint(k)) & uint64(sb.allOnes())
	if pat&1 == 1 {
		v |= 1<<uint(k) - 1
	}
	return uint32(v)
}

// msbAfter reports a pattern's MSB after k shifts: bit Bits-1-k of the
// pattern while k < Bits, the replicated LSB afterwards.
func (sb *Scoreboard) msbAfter(pat uint32, k int64) bool {
	if k >= int64(sb.cfg.Bits) {
		return pat&1 == 1
	}
	if k < 0 {
		k = 0
	}
	return pat>>(uint(sb.cfg.Bits)-1-uint(k))&1 == 1
}

func (sb *Scoreboard) check(r isa.Reg) {
	if int(r) >= sb.cfg.Regs {
		panic(fmt.Sprintf("scoreboard: register %v out of range", r))
	}
}

// ReadReady reports whether a consumer of r may issue this cycle: the MSB
// of the IRAW-extended register is set and no long-latency producer is
// outstanding. Registers never written are always ready.
func (sb *Scoreboard) ReadReady(r isa.Reg) bool {
	if r == isa.RegNone {
		return true
	}
	e := &sb.regs[r] // implicit bounds check stands in for check(r)
	return !e.longPending && sb.msbAfter(e.read, sb.now-e.stamp)
}

// WriteReady reports whether a new producer of r may issue this cycle
// without a WAW hazard: the previous value is available (baseline view) and
// no long-latency producer is outstanding. The stabilization bubble does
// not block writers — overwriting a stabilizing entry is safe.
func (sb *Scoreboard) WriteReady(r isa.Reg) bool {
	if r == isa.RegNone {
		return true
	}
	e := &sb.regs[r] // implicit bounds check stands in for check(r)
	return !e.longPending && sb.msbAfter(e.write, sb.now-e.stamp)
}

// IRAWBlocked reports whether a consumer of r is blocked *only* by the
// stabilization bubble: the value is available (a baseline machine would
// issue) but the RF entry is still stabilizing. This distinguishes the
// paper's "13.2% of instructions delayed" statistic from ordinary RAW
// stalls.
func (sb *Scoreboard) IRAWBlocked(r isa.Reg) bool {
	if r == isa.RegNone {
		return false
	}
	e := &sb.regs[r] // implicit bounds check stands in for check(r)
	if e.longPending {
		return false
	}
	k := sb.now - e.stamp
	return !sb.msbAfter(e.read, k) && sb.msbAfter(e.write, k)
}

// NextChange returns the earliest scoreboard time after Now at which r's
// readiness (either view's MSB) can change on its own — i.e. by shifting
// alone, with no new producer and no long-latency completion. It returns
// math.MaxInt64 when no such self-change exists: the register is
// long-pending (only an event can change it) or both views have gone
// steady-state. The event-driven pipeline uses this to bound idle-cycle
// skips; readiness is NOT monotone (the bubble un-readies a register after
// its bypass window), so the next change is a flip in either direction.
func (sb *Scoreboard) NextChange(r isa.Reg) int64 {
	if r == isa.RegNone {
		return math.MaxInt64
	}
	sb.check(r)
	e := &sb.regs[r]
	if e.longPending {
		return math.MaxInt64
	}
	k := sb.now - e.stamp
	next := int64(math.MaxInt64)
	for _, pat := range [2]uint32{e.read, e.write} {
		if j := sb.nextFlip(pat, k); j >= 0 {
			if t := e.stamp + j; t < next {
				next = t
			}
		}
	}
	return next
}

// nextFlip returns the smallest shift count j > k at which pat's MSB
// differs from its MSB at k, or -1 if the MSB never changes again. After
// Bits-1 shifts the MSB is the (replicated) LSB and stays there, so flips
// only occur while some original bit below the current MSB position still
// differs — located in O(1) with a leading-bit scan.
func (sb *Scoreboard) nextFlip(pat uint32, k int64) int64 {
	last := int64(sb.cfg.Bits) - 1
	if k >= last {
		return -1 // steady state
	}
	i := uint(last - k)       // index of the bit that is MSB after k shifts
	below := pat & (1<<i - 1) // the bits still to rotate into MSB
	if pat>>i&1 == 1 {
		below = ^pat & (1<<i - 1) // MSB is 1: look for the next 0
	}
	if below == 0 {
		return -1
	}
	return last - int64(bits.Len32(below)) + 1
}

// IssueProducer records that a producer of r with the given execution
// latency issued this cycle. Latency must be in the short range; use
// BeginLongLatency otherwise.
func (sb *Scoreboard) IssueProducer(r isa.Reg, latency int) {
	sb.check(r)
	sb.regs[r] = regState{
		read:  sb.Pattern(latency),
		write: sb.basePattern(latency),
		stamp: sb.now,
	}
}

// BeginLongLatency records a producer whose completion time is unknown or
// too large for the shift register (load miss, divider). The register stays
// not-ready until CompleteLongLatency.
func (sb *Scoreboard) BeginLongLatency(r isa.Reg) {
	sb.check(r)
	sb.regs[r] = regState{stamp: sb.now, longPending: true}
}

// CompleteLongLatency signals that the long-latency value of r will be
// available in `remaining` cycles (>= 1), re-arming the shift register as
// if a short producer of that latency issued this cycle (Section 4.1.1:
// "the shift register is updated ... when the value is expected to be
// available in less than B cycles").
func (sb *Scoreboard) CompleteLongLatency(r isa.Reg, remaining int) {
	sb.check(r)
	if !sb.regs[r].longPending {
		panic(fmt.Sprintf("scoreboard: CompleteLongLatency(%v) without pending producer", r))
	}
	if remaining < 1 {
		remaining = 1
	}
	if remaining > sb.MaxShortLatency() {
		panic(fmt.Sprintf("scoreboard: remaining %d exceeds short range %d", remaining, sb.MaxShortLatency()))
	}
	sb.regs[r] = regState{
		read:  sb.Pattern(remaining),
		write: sb.basePattern(remaining),
		stamp: sb.now,
	}
}

// LongPending reports whether r awaits a long-latency completion.
func (sb *Scoreboard) LongPending(r isa.Reg) bool {
	if r == isa.RegNone {
		return false
	}
	return sb.regs[r].longPending // implicit bounds check stands in for check(r)
}

// Flush resets every register to ready (pipeline flush: the in-flight
// producers that set these bits were squashed or will be reinjected).
func (sb *Scoreboard) Flush() {
	all := sb.allOnes()
	for r := range sb.regs {
		sb.regs[r] = regState{read: all, write: all, stamp: sb.now}
	}
}

// ReadView returns the raw read-view register of r (for tests and tracing).
func (sb *Scoreboard) ReadView(r isa.Reg) uint32 {
	sb.check(r)
	e := &sb.regs[r]
	return sb.shiftedView(e.read, sb.now-e.stamp)
}
