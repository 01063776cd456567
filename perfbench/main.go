// Command perfbench is the repository's benchmark: four user workloads,
// each timed end to end from the command-line tools built from the tree
// under test, plus a traced in-process run that attributes the time to the
// simulator's layers. See README.md for the workloads and metrics.
//
//	perfbench --workload figures-all --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported for every workload.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"minsts_per_s", "Minst/s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, reported for every workload; a
// layer the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"core.warmup_s", "s"},
	{"core.measure_s", "s"},
	{"core.window_s", "s"},
	{"core.timed_minsts", "Minst"},
	{"core.ns_per_inst", "ns"},
	{"core.allocs_per_kinst", "allocs/kinst"},
	{"core.bytes_per_kinst", "B/kinst"},
	{"core.sim_cpi", "cycles/inst"},
	{"core.stall_frac.iraw", "frac"},
	{"core.stall_frac.memory", "frac"},
	{"core.delayed_frac", "frac"},
	{"core.warm_minsts", "Minst"},
	{"cache.ns_per_access", "ns"},
	{"cache.accesses_per_inst", "ratio"},
	{"cache.il0.miss_ratio", "ratio"},
	{"cache.dl0.miss_ratio", "ratio"},
	{"cache.ul1.miss_ratio", "ratio"},
	{"cache.dtlb.miss_ratio", "ratio"},
	{"cache.stable_forwards_per_kinst", "1/kinst"},
	{"workload.gen_s", "s"},
	{"trace.write_s", "s"},
	{"trace.read_s", "s"},
	{"trace.shard_s", "s"},
	{"ckpt.warm_s", "s"},
	{"ckpt.restore_s", "s"},
	{"ckpt.capture_s", "s"},
	{"ckpt.hit_ratio", "ratio"},
	{"ckpt.captures", "count"},
	{"ckpt.snapshot_kb", "KB"},
	{"sim.cells", "count"},
	{"sim.distinct_cells", "count"},
	{"sim.unique_ratio", "ratio"},
	{"sim.pool_busy_frac", "frac"},
	{"sim.stitch_s", "s"},
	{"sim.cell_ms.p50", "ms"},
	{"sim.cell_ms.p90", "ms"},
	{"sim.cell_ms.n", "count"},
	{"journal.put_ms.p50", "ms"},
	{"journal.get_ms.p50", "ms"},
	{"journal.admit_ms.p50", "ms"},
	{"journal.replay_ratio", "ratio"},
	{"journal.entry_kb", "KB"},
	{"service.submit_s", "s"},
	{"service.acquire_ms.p50", "ms"},
	{"service.acquire_ms.p90", "ms"},
	{"service.complete_ms.p50", "ms"},
	{"service.complete_ms.p90", "ms"},
	{"service.empty_acquire_ratio", "ratio"},
	{"service.retries", "count"},
	{"service.upload_kb", "KB"},
	{"report.render_s", "s"},
	{"report.paper_err_pct", "%"},
	{"share.core", "frac"},
	{"share.cache", "frac"},
	{"share.workload", "frac"},
	{"share.trace", "frac"},
	{"share.ckpt", "frac"},
	{"share.sim", "frac"},
	{"share.journal", "frac"},
	{"share.service", "frac"},
	{"share.report", "frac"},
	{"share.bench", "frac"},
	{"bench.traced_wall_s", "s"},
	{"bench.trace_overhead_s", "s"},
}

// layers are the span-name prefixes the layer-share report groups by;
// "bench" is the benchmark's own orchestration (process launch, waiting).
var layers = []string{"core", "cache", "workload", "trace", "ckpt", "sim", "journal", "service", "report", "bench"}

// outcome is one measured iteration of a workload.
type outcome struct {
	wall, cpu, setup, rssMB float64
	attempted, failed       int
	digest                  string
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// insts is the instruction count the workload asks to have measured
	// in one iteration (Σ over requested cells of trace length).
	insts int64
	// prepare runs once per untraced run, before the timed iterations.
	prepare func(b *bench) error
	// run is one untraced iteration through the command-line tools.
	run func(b *bench) (outcome, error)
	// traced is one in-process iteration; it returns the output digest
	// and fills the per-layer metrics.
	traced func(b *bench, t *tracer) (string, error)
}

var workloads = []*workload{figuresAll, shardedSweep, daemonSweep, memboundTrace}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: figures-all, sharded-sweep, daemon-sweep or membound-trace")
	seed := flag.Uint64("seed", 1, "input seed (membound-trace's trace; the suite commands fix their own)")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout to benchmark")
	bin := flag.String("bin", "", "directory holding the built figures/vccsweep/sweepd/tracegen/irawsim")
	record := flag.Bool("record", false, "record this run's output digest in digests.json instead of checking it")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil {
		fail("unknown workload %q", *name)
	}
	b, err := newBench(*root, *bin, *seed, *record)
	if err != nil {
		fail("%v", err)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		b.cleanup()
		os.Exit(130)
	}()
	defer b.cleanup()

	var res result
	if *traceFlag != 0 {
		res, err = runTraced(b, w)
	} else {
		res, err = runUntraced(b, w, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		b.cleanup()
		fail("%s: %v", w.name, err)
	}
	if *record {
		if err := b.saveDigests(); err != nil {
			b.cleanup()
			fail("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		b.cleanup()
		fail("%v", err)
	}
	b.cleanup()
	fmt.Println(string(line))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(specs []metricSpec, values map[string]float64) result {
	r := result{Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		r.Metrics[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return r
}

// runUntraced times the workload's iterations for the budget and reports
// the medians of the end-to-end metrics.
func runUntraced(b *bench, w *workload, budget time.Duration) (result, error) {
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return result{}, err
		}
	}
	var outs []outcome
	start := time.Now()
	for len(outs) == 0 || time.Since(start)+time.Duration(outs[len(outs)-1].wall*float64(time.Second)) <= budget {
		o, err := w.run(b)
		if err != nil {
			return result{}, err
		}
		o.failed, o.attempted = b.gate(w, o)
		outs = append(outs, o)
	}
	col := func(f func(o outcome) float64) []float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return xs
	}
	wall := median(col(func(o outcome) float64 { return o.wall }))
	values := map[string]float64{
		"wall_s":       wall,
		"cpu_s":        median(col(func(o outcome) float64 { return o.cpu })),
		"setup_s":      median(col(func(o outcome) float64 { return o.setup })),
		"minsts_per_s": float64(w.insts) / 1e6 / wall,
		"max_rss_mb":   median(col(func(o outcome) float64 { return o.rssMB })),
	}
	res := newResult(endToEnd, values)
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	res.Correct = res.Failed == 0
	fmt.Printf("workload %s: %d iteration(s), seed %d\n", w.name, len(outs), b.seed)
	printMetrics(endToEnd, values)
	fmt.Printf("  fail_frac %.4f (%d/%d operations)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// runTraced runs one untraced iteration for reference, then one traced
// in-process iteration, and reports the per-layer metrics, the layer-share
// report and the tracing overhead.
func runTraced(b *bench, w *workload) (result, error) {
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return result{}, err
		}
	}
	ref, err := w.run(b)
	if err != nil {
		return result{}, err
	}
	ref.failed, ref.attempted = b.gate(w, ref)

	t := newTracer()
	digest, err := w.traced(b, t)
	if err != nil {
		return result{}, err
	}
	tracedWall := t.rec.rootWall()
	if t.timed > 0 {
		tracedWall = t.timed
	}
	t.set("bench.traced_wall_s", tracedWall)
	t.set("bench.trace_overhead_s", tracedWall-ref.wall)
	self := t.rec.layerSelf("bench." + w.name)
	total := sum(self)
	for _, l := range layers {
		if total > 0 {
			t.set("share."+l, self[l]/total)
		}
	}

	tracedFailed := 0
	if digest != ref.digest {
		tracedFailed = ref.attempted
		fmt.Printf("traced output digest %s differs from untraced %s\n", digest, ref.digest)
	}
	res := newResult(perLayer, t.values)
	res.Attempted = 2 * ref.attempted
	res.Failed = ref.failed + tracedFailed
	res.Correct = res.Failed == 0

	fmt.Printf("workload %s (traced): seed %d\n", w.name, b.seed)
	printMetrics(perLayer, t.values)
	fmt.Printf("layer shares of traced self time (traced wall %.3fs, untraced wall %.3fs, tracing overhead %+.3fs = %+.1f%%):\n",
		tracedWall, ref.wall, tracedWall-ref.wall, 100*(tracedWall-ref.wall)/ref.wall)
	printShares(self)
	fmt.Println("layer shares of the probes' self time (the direct calls behind the per-layer timings; not in share.*):")
	printShares(t.rec.layerSelf("bench.probe"))
	if path, err := b.writeSpans(w.name, t.rec); err == nil {
		fmt.Printf("spans: %s (%d)\n", path, len(t.rec.spans))
	} else {
		return result{}, err
	}
	return res, nil
}

func sum(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

func printShares(self map[string]float64) {
	total := sum(self)
	for _, l := range layers {
		if self[l] > 0 {
			fmt.Printf("  %-9s %6.1f%%  %8.3fs\n", l, 100*self[l]/total, self[l])
		}
	}
}

func printMetrics(specs []metricSpec, values map[string]float64) {
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			fmt.Printf("  %-32s %14s %s\n", s.name, "n/a", s.unit)
			continue
		}
		fmt.Printf("  %-32s %14.6g %s\n", s.name, v, s.unit)
	}
}

// writeSpans writes the recorded spans, one JSON object per line, beside
// the build outputs.
func (b *bench) writeSpans(name string, rec *recorder) (string, error) {
	path := filepath.Join(b.buildDir, fmt.Sprintf("spans-%s-%d.jsonl", name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, f.Close()
}

// validMetricName reports whether s is a legal metric name.
func validMetricName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	return strings.IndexFunc(s, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '.' || r == '-')
	}) < 0
}
