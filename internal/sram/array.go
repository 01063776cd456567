package sram

import "fmt"

// Config describes an SRAM array's organization.
type Config struct {
	// Name identifies the block in statistics ("DL0", "RF", ...).
	Name string
	// Entries is the number of independently addressable entries.
	Entries int
	// BytesPerEntry is the payload width of one entry.
	BytesPerEntry int
	// EntriesPerSet groups entries that are physically read together (the
	// ways of one cache set). Reading any entry of a set exposes every
	// stabilizing entry of that set to destruction. Use 1 for arrays whose
	// entries are read individually (register files, queues).
	EntriesPerSet int
	// ReadPorts and WritePorts bound per-cycle concurrency; 0 means
	// unlimited (port contention modelled elsewhere).
	ReadPorts  int
	WritePorts int
}

func (c Config) validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("sram %q: Entries must be positive, got %d", c.Name, c.Entries)
	}
	if c.BytesPerEntry <= 0 {
		return fmt.Errorf("sram %q: BytesPerEntry must be positive, got %d", c.Name, c.BytesPerEntry)
	}
	if c.EntriesPerSet <= 0 {
		return fmt.Errorf("sram %q: EntriesPerSet must be positive, got %d", c.Name, c.EntriesPerSet)
	}
	if c.Entries%c.EntriesPerSet != 0 {
		return fmt.Errorf("sram %q: Entries (%d) not a multiple of EntriesPerSet (%d)",
			c.Name, c.Entries, c.EntriesPerSet)
	}
	return nil
}

// Stats counts array activity; violation counters are the ground truth the
// integration tests use to prove IRAW avoidance works ("zero violations
// with avoidance on, nonzero with it off at low Vcc").
type Stats struct {
	Reads  uint64
	Writes uint64
	// ViolationReads counts reads whose target entry was still stabilizing.
	ViolationReads uint64
	// CollateralDestructions counts stabilizing entries destroyed because a
	// read touched their set, even though they were not the target.
	CollateralDestructions uint64
	// PortConflicts counts accesses rejected for lack of a free port.
	PortConflicts uint64
}

// Array is a data-carrying SRAM block at cycle granularity. It is not
// goroutine-safe; each simulated core owns its arrays.
type Array struct {
	cfg   Config
	data  []byte  // Entries * BytesPerEntry backing store
	ready []int64 // cycle from which each entry is readable
	// written is the cycle each entry's latest write started: the entry is
	// stabilizing (dangerous to read) only in [written, ready). Reads
	// before `written` see the previous, settled contents — this matters
	// because callers may stamp fills at future completion times.
	written []int64
	// corrupt marks entries destroyed by an IRAW violation; their data has
	// been scrambled and stays scrambled until rewritten.
	corrupt []bool
	// maxReady is an upper bound on every entry's ready stamp: reads at or
	// beyond it cannot hit a stabilizing entry anywhere in the array, so
	// the violation/collateral scan is skipped (the overwhelmingly common
	// case outside stabilization windows).
	maxReady int64
	// setReady is the per-set refinement of maxReady: setReady[s] bounds
	// the ready stamps of set s's entries, so a read can prove its own set
	// settled even while writes keep other sets stabilizing (the common
	// case for a store-heavy block under IRAW clocking). Like maxReady it
	// is an upper bound, only raised by writes — scramble lowers an entry's
	// ready stamp without touching the summary, which keeps the bound
	// conservative, never wrong.
	setReady []int64
	// unlimited records ReadPorts == 0 && WritePorts == 0 at construction:
	// such arrays never consult the per-cycle port counters, so their
	// accesses skip rolling them and their reads consult setReady. A
	// port-limited array rolls the counters on every access and gates its
	// reads on maxReady alone. portCycle is still rolled before every set
	// walk, which is the only place scramble (its one consumer) can run.
	unlimited bool
	stats     Stats

	readsThisCycle, writesThisCycle int
	portCycle                       int64

	// DebugScramble, when set, fires whenever an entry is destroyed
	// (tests only).
	DebugScramble func(cycle int64, entry int, wasTarget bool)
	// DebugWrite, when set, fires on every write (tests only).
	DebugWrite func(cycle int64, entry int, interrupted bool)
}

// New returns an Array for cfg with all entries stable and zeroed.
func New(cfg Config) (*Array, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sets := cfg.Entries / cfg.EntriesPerSet
	return &Array{
		cfg:       cfg,
		data:      make([]byte, cfg.Entries*cfg.BytesPerEntry),
		ready:     make([]int64, cfg.Entries),
		written:   make([]int64, cfg.Entries),
		corrupt:   make([]bool, cfg.Entries),
		setReady:  make([]int64, sets),
		unlimited: cfg.ReadPorts == 0 && cfg.WritePorts == 0,
	}, nil
}

// MustNew is New for static configurations; it panics on config errors.
func MustNew(cfg Config) *Array {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// Stats returns a snapshot of the activity counters.
func (a *Array) Stats() Stats { return a.stats }

func (a *Array) checkEntry(entry int) {
	if entry < 0 || entry >= a.cfg.Entries {
		panic(fmt.Sprintf("sram %q: entry %d out of range [0,%d)", a.cfg.Name, entry, a.cfg.Entries))
	}
}

func (a *Array) rollPorts(cycle int64) {
	if cycle != a.portCycle {
		a.portCycle = cycle
		a.readsThisCycle = 0
		a.writesThisCycle = 0
	}
}

// slot returns the backing slice for an entry.
func (a *Array) slot(entry int) []byte {
	off := entry * a.cfg.BytesPerEntry
	return a.data[off : off+a.cfg.BytesPerEntry]
}

// Write stores data into entry during the given cycle. With interrupted set
// (IRAW mode at low Vcc) the entry only becomes readable after
// stabilizeCycles further cycles; otherwise it is readable from the next
// cycle. Write returns false if no write port was free this cycle.
//
// The write itself always succeeds once a port is held, even into a
// stabilizing entry: per Section 4.4, "even if the data in the updated
// location were still stabilizing, correctness is guaranteed because data
// are not read but updated".
func (a *Array) Write(cycle int64, entry int, data []byte, interrupted bool, stabilizeCycles int) bool {
	// entry is bounds-checked by the slice accesses below (hot path).
	if len(data) != a.cfg.BytesPerEntry {
		panic(fmt.Sprintf("sram %q: write of %d bytes into %d-byte entry", a.cfg.Name, len(data), a.cfg.BytesPerEntry))
	}
	if !a.unlimited || a.DebugWrite != nil {
		a.rollPorts(cycle)
		if a.cfg.WritePorts > 0 && a.writesThisCycle >= a.cfg.WritePorts {
			a.stats.PortConflicts++
			return false
		}
		a.writesThisCycle++
		if a.DebugWrite != nil {
			a.DebugWrite(cycle, entry, interrupted)
		}
	}
	copy(a.slot(entry), data)
	a.corrupt[entry] = false
	a.written[entry] = cycle
	if interrupted {
		if stabilizeCycles < 1 {
			panic(fmt.Sprintf("sram %q: interrupted write needs stabilizeCycles >= 1", a.cfg.Name))
		}
		a.ready[entry] = cycle + 1 + int64(stabilizeCycles)
	} else {
		a.ready[entry] = cycle + 1
	}
	if a.ready[entry] > a.maxReady {
		a.maxReady = a.ready[entry]
	}
	if set := entry / a.cfg.EntriesPerSet; a.ready[entry] > a.setReady[set] {
		a.setReady[set] = a.ready[entry]
	}
	a.stats.Writes++
	return true
}

// scramble deterministically corrupts an entry's data, modelling the
// destroyed half-flipped bitcells of an IRAW violation.
func (a *Array) scramble(entry int) {
	s := a.slot(entry)
	for i := range s {
		s[i] ^= byte(0xA5 ^ (entry + i))
	}
	a.corrupt[entry] = true
	a.ready[entry] = a.portCycle // destroyed cells settle (to wrong values)
}

// Read fetches entry's data during cycle. ok reports a clean read. A read
// targeting a stabilizing entry is an IRAW violation: the returned data is
// the scrambled result and the entry stays corrupted. Whether or not the
// target itself was stabilizing, every *other* stabilizing entry in the
// same set is destroyed too (simultaneous set access, Section 4.3).
//
// A nil return with ok=false (and no counter movement beyond PortConflicts)
// means no read port was free.
func (a *Array) Read(cycle int64, entry int) (data []byte, ok bool) {
	// entry is bounds-checked by the slice accesses below (hot path).
	if a.unlimited {
		// Port-free fast reads: the per-cycle counters are never consulted
		// for unlimited-port arrays, so they are not rolled.
		a.stats.Reads++
		if cycle >= a.maxReady || cycle >= a.setReady[entry/a.cfg.EntriesPerSet] {
			// The target's set is settled (setReady refines maxReady per
			// set): the read is clean unless the entry still carries an
			// earlier violation's scramble, no co-resident entry can be
			// destroyed, and the set-wide slot walk is skipped — the same
			// outcome the walk below would reach with every stabilizing()
			// check false.
			return a.slot(entry), !a.corrupt[entry]
		}
		a.rollPorts(cycle) // scramble below reads portCycle
		return a.readSlow(cycle, entry)
	}
	a.rollPorts(cycle)
	if a.cfg.ReadPorts > 0 && a.readsThisCycle >= a.cfg.ReadPorts {
		a.stats.PortConflicts++
		return nil, false
	}
	a.readsThisCycle++
	a.stats.Reads++

	if cycle >= a.maxReady {
		// Nothing in the array is stabilizing: the read is clean unless the
		// entry still carries an earlier violation's scramble, and no
		// co-resident entry can be destroyed.
		return a.slot(entry), !a.corrupt[entry]
	}
	return a.readSlow(cycle, entry)
}

// readSlow is Read's set-walk half: the target and its co-resident entries
// checked for stabilization, with violation/collateral semantics applied.
// The caller has rolled the ports (scramble stamps a.portCycle).
func (a *Array) readSlow(cycle int64, entry int) (data []byte, ok bool) {
	violated := false
	if a.stabilizing(cycle, entry) {
		a.stats.ViolationReads++
		if a.DebugScramble != nil {
			a.DebugScramble(cycle, entry, true)
		}
		a.scramble(entry)
		violated = true
	}
	// Destroy any other stabilizing entry sharing the set.
	setBase := (entry / a.cfg.EntriesPerSet) * a.cfg.EntriesPerSet
	for e := setBase; e < setBase+a.cfg.EntriesPerSet; e++ {
		if e != entry && a.stabilizing(cycle, e) {
			a.stats.CollateralDestructions++
			if a.DebugScramble != nil {
				a.DebugScramble(cycle, e, false)
			}
			a.scramble(e)
		}
	}
	return a.slot(entry), !violated && !a.corrupt[entry]
}

// stabilizing reports whether entry is mid-stabilization at cycle.
func (a *Array) stabilizing(cycle int64, entry int) bool {
	return cycle >= a.written[entry] && cycle < a.ready[entry]
}

// Stable reports whether entry is readable at cycle without a violation.
// This is what the avoidance mechanisms consult *instead of* reading.
func (a *Array) Stable(cycle int64, entry int) bool {
	a.checkEntry(entry)
	return !a.stabilizing(cycle, entry)
}

// SetStable reports whether every entry in the set containing entry is
// readable at cycle (the condition a whole-set access needs).
func (a *Array) SetStable(cycle int64, entry int) bool {
	a.checkEntry(entry)
	setBase := (entry / a.cfg.EntriesPerSet) * a.cfg.EntriesPerSet
	for e := setBase; e < setBase+a.cfg.EntriesPerSet; e++ {
		if a.stabilizing(cycle, e) {
			return false
		}
	}
	return true
}

// ReadyAt returns the first cycle at which entry is readable.
func (a *Array) ReadyAt(entry int) int64 {
	a.checkEntry(entry)
	return a.ready[entry]
}

// WrittenAt returns the start cycle of entry's latest write.
func (a *Array) WrittenAt(entry int) int64 {
	a.checkEntry(entry)
	return a.written[entry]
}

// Corrupted reports whether entry currently holds violation-scrambled data.
func (a *Array) Corrupted(entry int) bool {
	a.checkEntry(entry)
	return a.corrupt[entry]
}

// Peek returns a copy of entry's data without port accounting, violation
// semantics, or side effects (a test/debug observer).
func (a *Array) Peek(entry int) []byte {
	a.checkEntry(entry)
	out := make([]byte, a.cfg.BytesPerEntry)
	copy(out, a.slot(entry))
	return out
}

// TotalBits returns the array's storage capacity in bits, used by the area
// and energy accounting.
func (a *Array) TotalBits() int { return a.cfg.Entries * a.cfg.BytesPerEntry * 8 }
