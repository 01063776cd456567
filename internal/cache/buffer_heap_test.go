package cache

import (
	"math/rand/v2"
	"testing"
)

// refReserve is Reserve's reference, computed from the buffer's flat
// state: wait out the port holds (when avoiding), then the argmin-freeAt
// entry (lowest index on ties). It returns the grant cycle, the entry, and
// the fill- and full-stall cycles Reserve must charge.
func refReserve(b *Buffer, cycle int64) (start int64, entry int, fillStall, fullStall uint64) {
	start = cycle
	if b.avoid {
		start = b.holds.firstFree(cycle)
		fillStall = uint64(start - cycle)
	}
	for i, f := range b.freeAt {
		if f < b.freeAt[entry] {
			entry = i
		}
	}
	if f := b.freeAt[entry]; f > start {
		fullStall = uint64(f - start)
		start = f
	}
	return start, entry, fillStall, fullStall
}

// TestBufferHeapEquivalence: the heap-backed Reserve picks what the
// argmin scan over freeAt picks — same grant cycles, same reserved
// entries, same stall charges — at every step of random
// Reserve/Commit/Acquire sequences, IRAW configurations and buffer sizes.
// The heap's (freeAt, index) tie-break must reproduce the scan's strict-<
// lowest-index choice exactly, including when Commit shortens an occupancy
// (until below the current freeAt), which exercises the sift-up half of
// heapFix.
func TestBufferHeapEquivalence(t *testing.T) {
	for _, entries := range []int{1, 2, 3, 8, 13} {
		for _, iraw := range []struct {
			interrupted, avoid bool
			n                  int
		}{{false, false, 0}, {true, false, 4}, {true, true, 4}, {true, true, 1}} {
			rng := rand.New(rand.NewPCG(uint64(entries), uint64(iraw.n)))
			b := NewBuffer("buf", entries)
			b.SetIRAW(iraw.interrupted, iraw.n, iraw.avoid)

			cycle := int64(0)
			for op := 0; op < 5000; op++ {
				cycle += rng.Int64N(6)
				wantStart, wantEntry, fill, full := refReserve(b, cycle)
				fill += b.FillStallCycles
				full += b.FullStallCycles
				allocs := b.Allocs + 1
				var start int64
				if rng.IntN(3) == 0 {
					start = b.Acquire(cycle, int(rng.Int64N(40)))
					if b.freeAt[wantEntry] < start {
						t.Fatalf("entries=%d iraw=%+v op %d: Acquire did not occupy reference entry %d", entries, iraw, op, wantEntry)
					}
				} else {
					start = b.Reserve(cycle)
					if b.reserved != wantEntry {
						t.Fatalf("entries=%d iraw=%+v op %d: Reserve picked entry %d, argmin scan says %d",
							entries, iraw, op, b.reserved, wantEntry)
					}
					// Occasionally commit an occupancy ending before the
					// entry's previous freeAt: freeAt decreases, the entry
					// must sift toward the root.
					until := start + rng.Int64N(60) - 10
					if until < start {
						until = start
					}
					b.Commit(start, until)
				}
				if start != wantStart {
					t.Fatalf("entries=%d iraw=%+v op %d: grant %d, reference says %d", entries, iraw, op, start, wantStart)
				}
				if b.FullStallCycles != full || b.FillStallCycles != fill || b.Allocs != allocs {
					t.Fatalf("entries=%d iraw=%+v op %d: counters {full %d fill %d allocs %d}, reference {full %d fill %d allocs %d}",
						entries, iraw, op, b.FullStallCycles, b.FillStallCycles, b.Allocs, full, fill, allocs)
				}
			}

			// Structural postcondition: pos is the inverse of order and the
			// heap invariant holds.
			for i := int32(0); i < int32(entries); i++ {
				if b.pos[b.order[i]] != i {
					t.Fatalf("entries=%d: pos/order out of sync at heap slot %d", entries, i)
				}
				if i > 0 && b.heapLess(b.order[i], b.order[(i-1)/2]) {
					t.Fatalf("entries=%d: heap invariant violated at slot %d", entries, i)
				}
			}
		}
	}
}
