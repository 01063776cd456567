package service

import (
	"testing"

	"lowvcc/internal/sim"
)

// BenchmarkExpandSpec prices keying one submission: a baseline+IRAW grid
// over the 7-trace suite at 1M instructions per trace (182 cells). The
// suite is generated before the timer starts; what remains is trace and
// config hashing.
func BenchmarkExpandSpec(b *testing.B) {
	spec := sim.SweepSpec{InstsPerTrace: 1_000_000, SeedsPerProfile: 1, Modes: []string{"baseline", "iraw"}}
	spec.Traces()
	b.ResetTimer()
	for b.Loop() {
		if _, _, err := expandSpec("bench", spec); err != nil {
			b.Fatal(err)
		}
	}
}
