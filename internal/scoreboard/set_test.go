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
