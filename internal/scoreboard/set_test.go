package scoreboard

import (
	"testing"

	"lowvcc/internal/isa"
	"lowvcc/internal/rng"
)

// randReg returns a random register, RegNone one time in four.
func randReg(src *rng.Source) isa.Reg {
	if src.Intn(4) == 0 {
		return isa.RegNone
	}
	return isa.Reg(src.Intn(isa.NumRegs))
}

// TestIssueReadyMatchesSingleProbes holds the fused probe to its
// definition: IssueReady(s1, s2, d) == ReadReady(s1) && ReadReady(s2) &&
// WriteReady(d), across randomized scoreboard states.
func TestIssueReadyMatchesSingleProbes(t *testing.T) {
	sb := New(DefaultConfig())
	src := rng.New(0x5B0A)
	for i := 0; i < 40000; i++ {
		mutateScoreboard(sb, src)
		s1, s2, d := randReg(src), randReg(src), randReg(src)
		want := sb.ReadReady(s1) && sb.ReadReady(s2) && sb.WriteReady(d)
		if got := sb.IssueReady(s1, s2, d); got != want {
			t.Fatalf("op %d: IssueReady(%v,%v,%v) = %v, singles say %v (now=%d)",
				i, s1, s2, d, got, want, sb.Now())
		}
	}
}

// TestIssueReadySetMatchesSequentialProbes fuzzes the batched ready-set
// probe against its contract: bit i equals a one-slot IssueReady probe of
// slot i taken *after* the issues of every granted older slot are applied,
// and bits stop at the first not-ready slot (in-order issue). The fuzz
// actually applies each granted slot's issue (IssueProducer on its produced
// register, with a random latency) before checking the next bit, so the
// fresh-producer shortcut is held to the mutation it predicts.
func TestIssueReadySetMatchesSequentialProbes(t *testing.T) {
	sb := New(DefaultConfig())
	src := rng.New(0x5E7B17)
	var ops [4]IssueOp
	for i := 0; i < 40000; i++ {
		mutateScoreboard(sb, src)
		n := 1 + src.Intn(len(ops))
		for j := 0; j < n; j++ {
			d := randReg(src)
			prod := d
			if src.Intn(4) == 0 {
				prod = isa.RegNone // store/control shape: no producer
			}
			ops[j] = IssueOp{S1: randReg(src), S2: randReg(src), D: d, Prod: prod}
		}
		mask := sb.IssueReadySet(ops[:n])

		for j := 0; j < n; j++ {
			op := ops[j]
			want := sb.IssueReady(op.S1, op.S2, op.D)
			if got := mask>>uint(j)&1 == 1; got != want {
				t.Fatalf("op %d slot %d/%d: set bit = %v, sequential probe says %v (mask %04b, %+v)",
					i, j, n, got, want, mask, op)
			}
			if !want {
				if rest := mask >> uint(j); rest != 0 {
					t.Fatalf("op %d slot %d: bits %04b set past the first not-ready slot", i, j, mask)
				}
				break
			}
			if op.Prod != isa.RegNone {
				sb.IssueProducer(op.Prod, 1+src.Intn(sb.MaxShortLatency()))
			}
		}
	}
}

// mutateScoreboard applies a random state transition: shifts, bulk
// advances, producers (short and long), completions, flushes and bubble
// reconfigurations.
func mutateScoreboard(sb *Scoreboard, src *rng.Source) {
	switch src.Intn(10) {
	case 0:
		sb.SetStabilizeCycles(src.Intn(sb.MaxN() + 1))
	case 1:
		sb.Flush()
	case 2:
		sb.AdvanceTo(sb.Now() + int64(src.Intn(20)))
	case 3, 4:
		r := isa.Reg(src.Intn(isa.NumRegs))
		if sb.LongPending(r) {
			sb.CompleteLongLatency(r, 1+src.Intn(sb.MaxShortLatency()))
		} else if src.Intn(2) == 0 {
			sb.BeginLongLatency(r)
		} else {
			sb.IssueProducer(r, 1+src.Intn(sb.MaxShortLatency()))
		}
	default:
		sb.Shift()
	}
}
