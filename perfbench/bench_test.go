package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestDigestGateCatchesFlippedByte(t *testing.T) {
	out := []byte("Vcc,baseline-ipc,baseline-time\n500mV,0.486,1234\n")
	b := &bench{digests: map[string]map[string]string{"figures-all": {"*": digestOf(out)}}, seen: map[string]string{}}
	if failed, attempted := b.gate(figuresAll, outcome{attempted: 7, digest: digestOf(out)}); failed != 0 || attempted != 7 {
		t.Fatalf("matching output: failed %d of %d", failed, attempted)
	}
	for i := range out {
		bad := append([]byte(nil), out...)
		bad[i] ^= 0x01
		if failed, _ := b.gate(figuresAll, outcome{attempted: 7, digest: digestOf(bad)}); failed != 7 {
			t.Fatalf("byte %d flipped: failed %d, want every operation", i, failed)
		}
	}
	if failed, _ := b.gate(figuresAll, outcome{attempted: 7, failed: 7, digest: digestOf(out)}); failed != 7 {
		t.Fatalf("non-zero exit: failed %d, want 7", failed)
	}
}

func TestUnrecordedSeedMustRepeat(t *testing.T) {
	b := &bench{seed: 999, digests: map[string]map[string]string{}, seen: map[string]string{}}
	if failed, _ := b.gate(memboundTrace, outcome{attempted: 1, digest: "a"}); failed != 0 {
		t.Fatal("first digest of an unrecorded seed failed")
	}
	if failed, _ := b.gate(memboundTrace, outcome{attempted: 1, digest: "a"}); failed != 0 {
		t.Fatal("repeated digest failed")
	}
	if failed, _ := b.gate(memboundTrace, outcome{attempted: 1, digest: "b"}); failed != 1 {
		t.Fatal("changed digest passed")
	}
}

func TestSelfTimeSyntheticTree(t *testing.T) {
	// root [0,10] with children a [1,4] and b [3,6] (overlapping), c [8,12]
	// (clipped to 10); a has child d [2,3].
	spans := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "core.a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "sim.b", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "cache.c", Start: 8, End: 12},
		{ID: 5, Parent: 2, Name: "cache.d", Start: 2, End: 3},
		{ID: 6, Name: "bench.probe", Start: 20, End: 21},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 5 - 2, 2: 3 - 1, 3: 3, 4: 4, 5: 1, 6: 1}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	r := &recorder{spans: spans}
	for root, wantLayer := range map[string]map[string]float64{
		"bench.root":  {"bench": 3, "core": 2, "sim": 3, "cache": 5},
		"bench.probe": {"bench": 1},
	} {
		layers := r.layerSelf(root)
		if len(layers) != len(wantLayer) {
			t.Errorf("%s: layers %v, want %v", root, layers, wantLayer)
		}
		for l, w := range wantLayer {
			if math.Abs(layers[l]-w) > 1e-12 {
				t.Errorf("%s: layer %s self %v, want %v", root, l, layers[l], w)
			}
		}
	}
	if got := r.rootWall(); got != 10 {
		t.Errorf("root wall %v, want 10", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if v, ok := percentile(xs(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, reported", v, ok)
	}
	if _, ok := percentile(xs(99), 0.9); ok {
		t.Error("p90 of 99 samples reported with only 9 beyond it")
	}
	if v, ok := percentile(xs(21), 0.5); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11, reported", v, ok)
	}
	if _, ok := percentile(xs(19), 0.5); ok {
		t.Error("p50 of 19 samples reported with only 9 beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
	tr := newTracer()
	tr.setPct("x.p90", xs(50), 0.9)
	if _, ok := tr.values["x.p90"]; ok {
		t.Error("setPct emitted p90 of 50 samples")
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Error("median of 4 values")
	}
}

// TestMetricNames checks every metric name's form and that BENCHMARK.json
// lists exactly the metrics the benchmark reports, with the same units.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validMetricName(m.name) {
			t.Errorf("invalid metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"", "a b", "p90%", "x/y"} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
	for _, w := range cfg.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestPaperErrPct(t *testing.T) {
	csv := []byte("Vcc,freq-gain,perf-gain,ipc-base,ipc-iraw,stall-cost\n" +
		"500mV,1.570,1.480,0.486,0.453,6.87%\n400mV,1.990,1.900,0.486,0.453,6.87%\n" +
		"Vcc,delay,energy,EDP\n500mV,0.684,0.885,0.671\n450mV,0.610,0.727,0.410\n400mV,0.540,0.565,0.330\n")
	got, err := paperErrPct(csv)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 * 0.1 / 5; math.Abs(got-want) > 1e-9 { // only the 500mV EDP is off, by 10%
		t.Errorf("paper error %v%%, want %v%%", got, want)
	}
	if _, err := paperErrPct([]byte("nothing")); err == nil {
		t.Error("missing tables accepted")
	}
}
