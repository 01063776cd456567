package sim

import (
	"encoding/json"
	"math/bits"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
)

// FuzzSweepSpec feeds arbitrary bytes through the sweep service's
// admission path — JSON decode, then Validate — and checks that every
// spec it admits is bounded and runnable, without materializing a trace:
// the per-profile instruction product fits the budget, every mode and
// level resolves, and the width is a real core width. Seeds live in
// testdata/fuzz/FuzzSweepSpec.
func FuzzSweepSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s SweepSpec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		if s.InstsPerTrace <= 0 || s.SeedsPerProfile <= 0 {
			t.Fatalf("admitted non-positive size %d × %d", s.InstsPerTrace, s.SeedsPerProfile)
		}
		if hi, lo := bits.Mul64(uint64(s.InstsPerTrace), uint64(s.SeedsPerProfile)); hi != 0 || lo > maxProfileInsts {
			t.Fatalf("admitted %d × %d instructions per profile, budget %d", s.InstsPerTrace, s.SeedsPerProfile, maxProfileInsts)
		}
		modes, err := s.CircuitModes()
		if err != nil || len(modes) == 0 {
			t.Fatalf("admitted modes %q: %v", s.Modes, err)
		}
		levels := s.Levels()
		for _, v := range levels {
			if v < circuit.VMin || v > circuit.VMax {
				t.Fatalf("admitted level %v outside [%v, %v]", v, circuit.VMin, circuit.VMax)
			}
		}
		if s.Width != 0 && (s.Width < 1 || s.Width > core.MaxWidth) {
			t.Fatalf("admitted width %d", s.Width)
		}
	})
}
