package sim

import (
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/workload"
)

// TestCellKeyGolden pins the journal content address of one short cell
// under an unwindowed and several windowed plans. The strings were recorded
// before the runner's options were reworked; any drift here would orphan
// every journal and checkpoint entry written by an earlier build without an
// EngineVersion bump.
func TestCellKeyGolden(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 3000, 7)
	cases := []struct {
		name string
		r    *Runner
		want string
	}{
		{"unwindowed", &Runner{},
			"8514dd05c906992ab2101b71676669acddf81f1e275ffe282c2572645c44f73b"},
		{"windowed", &Runner{WindowInsts: 1000},
			"fc497e04a720933699319dec02e067123dfed7e3e075e6f4ecb41ec44a40d657"},
		{"windowed explicit warm", &Runner{WindowInsts: 1000, WarmInsts: 400},
			"9c7cf1dc2f8bba90480649a41bfb59973a7eac1573f27b8d1eea6ca29025d4d2"},
		{"windowed width 4", &Runner{WindowInsts: 1000, Width: 4},
			"0f21cb97eecf25348c8cb055ce8449993c915c9f262a96a3f91252fab62b5527"},
	}
	for _, tc := range cases {
		got, err := tc.r.CellKey(tc.r.pointConfig(500, circuit.ModeIRAW), tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: CellKey = %s, want %s (EngineVersion %s)", tc.name, got, tc.want, core.EngineVersion)
		}
	}
}
