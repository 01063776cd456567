package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// TestFunctionalWarmShardingBias is the sharding acceptance test: on the
// production-style long trace, sample windows warmed with functional replay
// — full-history (warm=-1) via the checkpoint-backed default — must land
// within 1% of the unsharded whole pass they approximate, and the stitch
// must be bitwise deterministic across repeats and worker counts.
func TestFunctionalWarmShardingBias(t *testing.T) {
	// The production-scale trace BenchmarkShardedLongTrace records: bias is
	// a property of warm-history length against the suite's working sets,
	// so the golden number is pinned at the scale the acceptance names.
	tr := workload.LongTrace(700000, 11)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	ctx := context.Background()

	cold, err := core.MustNew(cfg).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *core.Result {
		r := &Runner{Workers: workers, WindowInsts: len(tr.Insts) / 8}
		per, _, err := r.RunPoint(ctx, cfg, []*trace.Trace{tr})
		if err != nil {
			t.Fatal(err)
		}
		return per[0]
	}

	fun := run(4)
	if fun.Run.Instructions != uint64(len(tr.Insts)) {
		t.Fatalf("stitch measured %d instructions, want %d", fun.Run.Instructions, len(tr.Insts))
	}
	if b := 100 * (fun.IPC() - cold.IPC()) / cold.IPC(); math.Abs(b) > 1 {
		t.Errorf("functional-warm sharding bias %+.2f%% exceeds the 1%% golden tolerance", b)
	}
	if again := run(4); !reflect.DeepEqual(fun, again) {
		t.Error("functional-warm sharded run is not deterministic")
	}
	if one := run(1); !reflect.DeepEqual(fun, one) {
		t.Error("functional-warm sharded run depends on worker count")
	}
}
