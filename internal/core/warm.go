package core

import (
	"fmt"

	"lowvcc/internal/isa"
	"lowvcc/internal/trace"
)

// warmStopStride bounds how many instructions WarmReplay processes between
// stop-check polls; replay is so much faster than timed simulation that a
// coarser stride than the run loop's keeps preemption just as prompt.
const warmStopStride = 4096

// WarmReplay functionally replays the first n instructions of tr: the
// memory hierarchy sees the fetch/load/store stream and the predictor the
// resolved control flow, both through their timing-free warm paths, so the
// core's architectural warm state (cache and TLB contents, LRU recency,
// dirty bits, oracle versions, BP counters, global history, RSB) ends up
// exactly as a function of the instruction sequence — independent of the
// clock plan, the Vcc level and the IRAW mode. Nothing timing-visible
// changes: no cycles elapse (c.now is untouched), no port holds, stalls,
// in-flight fills, STable entries or stabilization windows are created, and
// no Result statistics move (a following measured run diffs from its own
// snapshot anyway). The pipeline-side state (scoreboard, IQ, register
// timing) is left cold: it re-fills within a few cycles of the measured
// span, the same transient the head of any trace pays.
//
// The replay mirrors the timed front end's access stream: one instruction
// fetch per 64-byte line transition, one data access per load or store, one
// predictor update per control instruction. The installed stop check is
// polled so context cancellation and point timeouts preempt warm replay
// just as they preempt timed simulation.
func (c *Core) WarmReplay(tr *trace.Trace, n int) error {
	return c.WarmReplayRange(tr, 0, n)
}

// WarmReplayRange functionally replays instructions [from, to) of tr — the
// segmented form of WarmReplay that the checkpoint store uses to replay only
// the residual tail after restoring a snapshot. Replaying a prefix in
// segments leaves the same warm state as one continuous replay: the only
// segmentation artifacts are the per-segment fetch-line memo reset (at worst
// one extra warm fetch of an already most-recently-touched line — an
// order-preserving no-op) and warm-memo invalidation (the memos are
// result-invariant caches). Tick counters advance differently, but only
// their ordering is observable and capture normalizes it away.
func (c *Core) WarmReplayRange(tr *trace.Trace, from, to int) error {
	if from < 0 || to < from || to > len(tr.Insts) {
		return fmt.Errorf("core: warm range [%d, %d) out of range for trace %q (%d insts)",
			from, to, tr.Name, len(tr.Insts))
	}
	at := c.now
	c.mem.BeginWarm()
	lastLine := ^uint64(0)
	for i := from; i < to; i++ {
		if c.stop != nil && i&(warmStopStride-1) == 0 {
			if err := c.stop(); err != nil {
				return fmt.Errorf("core: %s: warm replay aborted: %w", tr.Name, err)
			}
		}
		in := &tr.Insts[i]
		if line := in.PC &^ 63; line != lastLine {
			c.mem.WarmFetch(at, in.PC)
			lastLine = line
		}
		switch in.Op {
		case isa.OpLoad:
			c.mem.WarmLoad(at, in.Addr)
		case isa.OpStore:
			c.mem.WarmStore(at, in.Addr)
		case isa.OpBranch:
			c.bp.WarmBranch(in.PC, in.Taken)
		case isa.OpCall:
			c.bp.WarmCall(in.PC + 4)
		case isa.OpReturn:
			c.bp.WarmReturn()
		}
	}
	return nil
}
