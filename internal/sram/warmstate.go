package sram

import "fmt"

// WarmState is the checkpointable snapshot of an array that has only ever
// been written through the functional warm path (settled writes stamped at
// cycle 0). It captures exactly the state that determines future behaviour
// under the timing-independent access-order contract: the data bytes and
// which entries have been written (ready == 1). Everything else — written
// stamps, corruption, port counters, the per-set summaries — is either
// provably at its post-warm value or derivable from Ready, so a restore
// reconstructs it instead of serializing it.
//
// A WarmState is immutable once captured: restores copy out of it, so one
// snapshot is safely shared read-only across any number of cores.
type WarmState struct {
	// Data is the full backing store (Entries * BytesPerEntry).
	Data []byte
	// Ready is a bitset over entries: bit e set means entry e has been
	// warm-written (ready stamp 1); clear means never written (stamp 0).
	Ready []uint64
}

// CaptureWarm snapshots the array's warm state. It fails if the array
// carries any state a pure functional warm-up from reset cannot produce
// (timed writes, stabilization windows, corruption) — the checkpoint layer
// must never silently serialize timing-dependent state.
func (a *Array) CaptureWarm() (*WarmState, error) {
	s := &WarmState{
		Data:  make([]byte, len(a.data)),
		Ready: make([]uint64, (a.cfg.Entries+63)/64),
	}
	copy(s.Data, a.data)
	for e := 0; e < a.cfg.Entries; e++ {
		switch {
		case a.written[e] != 0 || a.corrupt[e]:
			return nil, fmt.Errorf("sram %q: entry %d carries timed state (written %d, corrupt %v)",
				a.cfg.Name, e, a.written[e], a.corrupt[e])
		case a.ready[e] == 1:
			s.Ready[e/64] |= 1 << (e % 64)
		case a.ready[e] != 0:
			return nil, fmt.Errorf("sram %q: entry %d ready stamp %d is not a warm stamp",
				a.cfg.Name, e, a.ready[e])
		}
	}
	return s, nil
}

// RestoreWarm loads a warm snapshot into the array, which must be freshly
// constructed (or equivalent to it). The snapshot is only read: the array
// gets its own copy of the data and recomputed summaries.
func (a *Array) RestoreWarm(s *WarmState) error {
	if len(s.Data) != len(a.data) || len(s.Ready) != (a.cfg.Entries+63)/64 {
		return fmt.Errorf("sram %q: warm snapshot shape mismatch (%d/%d data bytes, %d/%d ready words)",
			a.cfg.Name, len(s.Data), len(a.data), len(s.Ready), (a.cfg.Entries+63)/64)
	}
	copy(a.data, s.Data)
	a.maxReady = 0
	for i := range a.setReady {
		a.setReady[i] = 0
	}
	for e := 0; e < a.cfg.Entries; e++ {
		a.written[e] = 0
		a.corrupt[e] = false
		if s.Ready[e/64]&(1<<(e%64)) != 0 {
			a.ready[e] = 1
			a.maxReady = 1
			a.setReady[e/a.cfg.EntriesPerSet] = 1
		} else {
			a.ready[e] = 0
		}
	}
	return nil
}
