package sram

import (
	"bytes"
	"testing"

	"lowvcc/internal/rng"
)

// TestPerSetFastReadEquivalence fuzzes the per-set ready-bound read of an
// unlimited-port array against the maxReady-gated read of a port-limited
// array whose limits are too high to ever conflict: identical write/read
// sequences (interrupted and not, in and out of stabilization windows,
// across sets) must produce identical data, cleanliness, statistics and
// corruption state.
func TestPerSetFastReadEquivalence(t *testing.T) {
	cfg := Config{Name: "T", Entries: 24, BytesPerEntry: 8, EntriesPerSet: 4}
	fast := MustNew(cfg)
	cfg.ReadPorts, cfg.WritePorts = 1<<30, 1<<30
	slow := MustNew(cfg)

	src := rng.New(0x5E7FA57)
	cycle := int64(1)
	buf := make([]byte, cfg.BytesPerEntry)
	for i := 0; i < 50000; i++ {
		entry := src.Intn(cfg.Entries)
		switch src.Intn(3) {
		case 0:
			for j := range buf {
				buf[j] = byte(src.Intn(256))
			}
			interrupted := src.Intn(2) == 0
			n := 1 + src.Intn(4)
			if fast.Write(cycle, entry, buf, interrupted, n) != slow.Write(cycle, entry, buf, interrupted, n) {
				t.Fatalf("op %d: Write accept diverges", i)
			}
		default:
			fd, fok := fast.Read(cycle, entry)
			sd, sok := slow.Read(cycle, entry)
			if fok != sok || !bytes.Equal(fd, sd) {
				t.Fatalf("op %d: Read(%d, %d) = (%x,%v) vs (%x,%v)", i, cycle, entry, fd, fok, sd, sok)
			}
		}
		// Mostly dwell inside stabilization windows; sometimes jump past.
		if src.Intn(20) == 0 {
			cycle += 10
		} else {
			cycle += int64(src.Intn(2))
		}

		if fast.Stats() != slow.Stats() {
			t.Fatalf("op %d: stats diverge:\nfast: %+v\nslow: %+v", i, fast.Stats(), slow.Stats())
		}
		if i%64 == 0 {
			for e := 0; e < cfg.Entries; e++ {
				if fast.Corrupted(e) != slow.Corrupted(e) {
					t.Fatalf("op %d: Corrupted(%d) diverges", i, e)
				}
			}
		}
	}
}
