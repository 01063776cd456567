// Command figures regenerates every table and figure of the paper's
// evaluation (and the extra statistics Section 4/5 quote inline):
//
//	figures -fig 1          Figure 1  (delay curves)
//	figures -fig 11a        Figure 11(a) (cycle times)
//	figures -fig 11b        Figure 11(b) (frequency & performance gains)
//	figures -fig 12         Figure 12 (energy, delay, EDP)
//	figures -fig t1         Table 1 (mechanism comparison, quantitative)
//	figures -fig breakdown  Section 5.2 stall decomposition at -mv
//	figures -fig delayed    The 13.2%-delayed-instructions statistic
//	figures -fig bp         Section 4.5 BP/RSB statistics
//	figures -fig overhead   Section 5.3 area/energy overheads
//	figures -fig edp450     Section 5.3 worked example at 450 mV
//	figures -fig nsweep     N ablation (1..4 stabilization cycles)
//	figures -fig resched    compiler-rescheduling extension (§5.2 future work)
//	figures -fig gate       IQ occupancy-gate sensitivity (ICI/AI)
//	figures -fig stable     Store-Table sizing ablation
//	figures -fig det        deterministic BP/RSB testability variant (§4.5)
//	figures -fig combined   IRAW + Faulty-Bits combination (§4.4)
//	figures -fig width      core-width ablation (widths 1/2/4 x Vcc x design)
//	figures -fig plots      ASCII renderings of Figures 1 and 11(a)
//	figures -fig all        everything above
//
// Use -insts/-seeds to scale the workload and -csv for CSV output. -width
// re-runs any figure on a wider (or scalar) core; the width ablation table
// sweeps widths itself and ignores it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"lowvcc/internal/circuit"
	"lowvcc/internal/report"
	"lowvcc/internal/service"
	"lowvcc/internal/sim"
	"lowvcc/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "which artifact to regenerate (1, 11a, 11b, 12, t1, breakdown, delayed, bp, overhead, edp450, nsweep, all)")
	insts := flag.Int("insts", 60000, "instructions per trace")
	seeds := flag.Int("seeds", 2, "traces per workload class")
	mv := flag.Int("mv", 575, "voltage for the breakdown statistic")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	server := flag.String("server", "", "run the sweep on a sweepd daemon at this address (-fig 11b only)")
	runner := sim.Default()
	runner.RegisterFlags(flag.CommandLine, "figures")
	flag.Parse()

	spec := sim.SuiteSpec{InstsPerTrace: *insts, SeedsPerProfile: *seeds}
	g := &gen{w: os.Stdout, csv: *csv, spec: spec, breakdownMV: circuit.Millivolts(*mv),
		server: *server, runner: runner}
	if *server != "" && *fig != "11b" {
		fmt.Fprintln(os.Stderr, "figures: -server only supports -fig 11b (the voltage-sweep figure)")
		os.Exit(2)
	}
	if err := g.run(*fig); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

type gen struct {
	w           io.Writer // every table and plot renders here
	csv         bool
	spec        sim.SuiteSpec
	breakdownMV circuit.Millivolts
	traces      []*trace.Trace

	// server, when non-empty, runs the Figure 11(b) sweep on a sweepd
	// daemon at that address; runner's windowing and width ride along so
	// the daemon's cell keys match a local journal's.
	server string
	runner *sim.Runner
}

func (g *gen) suite() []*trace.Trace {
	if g.traces == nil {
		g.traces = g.spec.Traces()
	}
	return g.traces
}

func (g *gen) emit(t *report.Table) error {
	if g.csv {
		return t.RenderCSV(g.w)
	}
	if err := t.Render(g.w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(g.w)
	return err
}

func (g *gen) run(fig string) error {
	all := fig == "all"
	any := false
	steps := []struct {
		name string
		f    func() error
	}{
		{"1", g.fig1}, {"11a", g.fig11a}, {"11b", g.fig11b}, {"12", g.fig12},
		{"t1", g.table1}, {"breakdown", g.breakdown}, {"delayed", g.delayed},
		{"bp", g.bp}, {"overhead", g.overhead}, {"edp450", g.edp450},
		{"nsweep", g.nsweep}, {"resched", g.resched}, {"gate", g.gate},
		{"stable", g.stableSizing}, {"det", g.determinism},
		{"combined", g.combined}, {"width", g.widthAblation}, {"plots", g.plots},
	}
	for _, s := range steps {
		if all || fig == s.name {
			any = true
			if err := s.f(); err != nil {
				return fmt.Errorf("fig %s: %w", s.name, err)
			}
		}
	}
	if !any {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func (g *gen) fig1() error {
	t := report.NewTable("Figure 1: delay vs Vcc (normalized to 12 FO4 at 700mV)",
		"Vcc", "12FO4", "write", "read", "write+WL", "read+WL")
	for _, r := range sim.Figure1() {
		t.AddRow(r.Vcc, r.Phase, r.BitcellWrite, r.BitcellRead, r.WriteWithWL, r.ReadWithWL)
	}
	return g.emit(t)
}

func (g *gen) fig11a() error {
	t := report.NewTable("Figure 11(a): cycle time (normalized to 24 FO4 at 700mV)",
		"Vcc", "24FO4", "baseline", "IRAW")
	for _, r := range sim.Figure11a() {
		t.AddRow(r.Vcc, r.LogicCycle, r.BaselineCycle, r.IRAWCycle)
	}
	return g.emit(t)
}

// fig11b renders Figure 11(b) progressively: each voltage's row prints the
// moment both designs at that level finish simulating, so the figure
// starts appearing long before the full (mode x voltage x trace) grid
// completes.
func (g *gen) fig11b() error {
	t, err := report.NewStreamTable(g.w, g.csv,
		"Figure 11(b): IRAW frequency increase and performance gains",
		"Vcc", "freq-gain", "perf-gain", "ipc-base", "ipc-iraw", "stall-cost")
	if err != nil {
		return err
	}
	ctx := context.Background()
	spec := g.runner.SweepSpec(g.spec, sim.Fig11bModes())
	id, updates, err := service.OpenSweep(ctx, g.server, g.runner, spec)
	if err != nil {
		return err
	}
	if id != "" {
		fmt.Fprintln(os.Stderr, "figures: sweep", id)
	}
	var rowErr error
	_, err = sim.Figure11bFold(ctx, updates, spec.TracesPerPoint(), func(r sim.Fig11bRow, fail *sim.CellError) {
		var e error
		if fail != nil {
			e = t.AddRow(r.Vcc, "FAIL("+fail.Reason(32)+")", "-", "-", "-", "-")
		} else {
			e = t.AddRow(r.Vcc, r.FreqGain, r.PerfGain, r.IPCBase, r.IPCIRAW, report.Pct(r.StallCost))
		}
		if e != nil && rowErr == nil {
			rowErr = e
		}
	})
	var pe *sim.PartialError
	if errors.As(err, &pe) {
		// The failed voltages already rendered as FAIL rows (-allow-partial
		// locally, always on a daemon); note the damage and keep the run
		// alive.
		fmt.Fprintf(os.Stderr, "figures: %d cell(s) failed; rows marked FAIL\n", len(pe.Cells))
	} else if err != nil {
		return err
	}
	if rowErr != nil {
		return rowErr
	}
	if !g.csv {
		fmt.Fprintln(g.w)
	}
	return nil
}

func (g *gen) fig12() error {
	rows, err := sim.Figure12(g.suite())
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 12: IRAW energy, delay and EDP relative to baseline",
		"Vcc", "delay", "energy", "EDP")
	for _, r := range rows {
		t.AddRow(r.Vcc, r.RelDelay, r.RelEnergy, r.RelEDP)
	}
	return g.emit(t)
}

func (g *gen) table1() error {
	res, err := sim.Table1(g.suite(), 500)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Table 1 (quantitative, at %v)", res.Vcc),
		"mechanism", "all-blocks", "adapts-Vcc", "hw-overhead", "hard-to-test",
		"freq-gain", "perf-gain", "feasible", "caveat")
	for _, r := range res.Rows {
		t.AddRow(r.Mode.String(), report.Bool(r.WorksForAllBlocks), report.Bool(r.AdaptsToVcc),
			r.HardwareOverhead, report.Bool(r.HardToTest),
			r.FreqGain, r.PerfGain, report.Bool(r.Feasible), r.Caveat)
	}
	return g.emit(t)
}

func (g *gen) breakdown() error {
	res, err := sim.Breakdown(g.suite(), g.breakdownMV)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Section 5.2 stall decomposition at %v (paper: 8.86%% = 8.52 RF + 0.30 DL0 + 0.04 rest)", res.Vcc),
		"metric", "value")
	t.AddRow("performance drop vs baseline", report.Pct(res.PerfDrop))
	t.AddRow("RF IRAW issue-stall share", report.Pct(res.RFShare))
	t.AddRow("IQ gate share", report.Pct(res.IQShare))
	t.AddRow("DL0 share (fill-stall + replay)", report.Pct(res.DL0Share))
	t.AddRow("other blocks share", report.Pct(res.OtherShare))
	return g.emit(t)
}

func (g *gen) delayed() error {
	res, err := sim.Breakdown(g.suite(), 500)
	if err != nil {
		return err
	}
	t := report.NewTable("Instructions delayed by RF IRAW avoidance (paper: 13.2%)", "metric", "value")
	t.AddRow("delayed fraction", report.Pct(res.DelayedFraction))
	return g.emit(t)
}

func (g *gen) bp() error {
	res, err := sim.BPStats(g.suite(), 500)
	if err != nil {
		return err
	}
	t := report.NewTable("Section 4.5: prediction-only blocks under IRAW (paper: 0.0017% potential extra mispredictions, no RSB conflicts)",
		"metric", "value")
	t.AddRow("BP potential corruption rate", fmt.Sprintf("%.5f%%", 100*res.PotentialCorruptionRate))
	t.AddRow("RSB conflicts", res.RSBConflicts)
	t.AddRow("return predictions", res.ReturnPredictions)
	return g.emit(t)
}

func (g *gen) overhead() error {
	a := sim.IRAWOverheads()
	t := report.NewTable("Section 5.3 overheads (paper: <0.03% area, <1% energy)", "metric", "value")
	t.AddRow("core SRAM bits", a.CoreSRAMBits)
	t.AddRow("IRAW extra latch bits", a.ExtraLatchBits)
	t.AddRow("area overhead", fmt.Sprintf("%.4f%%", 100*a.OverheadFraction()))
	t.AddRow("energy overhead (20x activity)", fmt.Sprintf("%.4f%%", 100*a.EnergyOverheadFraction()))
	return g.emit(t)
}

func (g *gen) edp450() error {
	res, err := sim.EDP450(g.suite())
	if err != nil {
		return err
	}
	t := report.NewTable("Section 5.3 worked example at 450mV, scaled to 5J unconstrained (paper: 5/1.24, 8.50/4.74, 6.40/2.64)",
		"design", "total-J", "leakage-J")
	t.AddRow("unconstrained", report.F2(res.Unconstrained.Total()), report.F2(res.Unconstrained.Leakage))
	t.AddRow("baseline", report.F2(res.Baseline.Total()), report.F2(res.Baseline.Leakage))
	t.AddRow("IRAW", report.F2(res.IRAW.Total()), report.F2(res.IRAW.Leakage))
	return g.emit(t)
}

func (g *gen) resched() error {
	res, err := sim.CompilerResched(g.suite(), 500, 8)
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: bubble-aware compiler rescheduling at 500mV (Section 5.2 future work)",
		"metric", "original", "rescheduled")
	t.AddRow("delayed by RF IRAW", report.Pct(res.DelayedBefore), report.Pct(res.DelayedAfter))
	t.AddRow("IRAW speedup over baseline", report.F(res.PerfGainBefore), report.F(res.PerfGainAfter))
	return g.emit(t)
}

func (g *gen) gate() error {
	rows, err := sim.GateSensitivity(g.suite(), 500)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: IQ occupancy gate (threshold = ICI + AI*N) at 500mV",
		"ICI", "AI", "threshold", "IPC", "gate-share")
	for _, r := range rows {
		t.AddRow(r.ICI, r.AI, r.Threshold, r.IPC, report.Pct(r.GateShare))
	}
	return g.emit(t)
}

func (g *gen) stableSizing() error {
	rows, err := sim.STableSizing(g.suite(), 500)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: Store-Table provisioning at 500mV",
		"stores/cycle", "entries", "IPC", "forwards", "replay-cycles")
	for _, r := range rows {
		t.AddRow(r.StoresPerCycle, r.Entries, r.IPC, r.Forwards, r.ReplayCycles)
	}
	return g.emit(t)
}

func (g *gen) determinism() error {
	res, err := sim.DeterminismMode(g.suite(), 500)
	if err != nil {
		return err
	}
	t := report.NewTable("Section 4.5 testability variant: deterministic RSB", "metric", "value")
	t.AddRow("default IPC", res.DefaultIPC)
	t.AddRow("deterministic IPC", res.DeterministicIPC)
	t.AddRow("default RSB conflicts", res.DefaultConflicts)
	t.AddRow("deterministic RSB stall cycles", res.DeterministicRSBStallCycles)
	return g.emit(t)
}

func (g *gen) combined() error {
	rows, err := sim.CombinedFaulty(g.suite(), []circuit.Millivolts{500, 450, 400})
	if err != nil {
		return err
	}
	t := report.NewTable("Section 4.4 combination: IRAW + Faulty Bits (4 sigma)",
		"Vcc", "iraw-freq", "combined-freq", "iraw-perf", "combined-perf", "disabled-lines")
	for _, r := range rows {
		t.AddRow(r.Vcc, r.IRAWFreqGain, r.CombinedFreqGain, r.IRAWPerfGain, r.CombinedPerfGain, r.DisabledLines)
	}
	return g.emit(t)
}

// width renders the core-width ablation: both designs at fetch/issue
// widths 1, 2 and 4 across a small voltage ladder. perf-gain is IRAW over
// the same-width baseline; width-gain is the baseline's speedup over the
// scalar (width-1) baseline at the same voltage.
func (g *gen) widthAblation() error {
	rows, err := sim.WidthAblation(context.Background(), g.suite(),
		[]int{1, 2, 4}, []circuit.Millivolts{600, 500, 400})
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: fetch/issue width x Vcc x design",
		"width", "Vcc", "ipc-base", "ipc-iraw", "perf-gain", "width-gain")
	for _, r := range rows {
		t.AddRow(r.Width, r.Vcc, r.IPCBase, r.IPCIRAW, r.PerfGain, r.WidthGain)
	}
	return g.emit(t)
}

func (g *gen) plots() error {
	f1 := sim.Figure1()
	ticks := make([]string, len(f1))
	logic := make([]float64, len(f1))
	write := make([]float64, len(f1))
	read := make([]float64, len(f1))
	for i, r := range f1 {
		ticks[i] = fmt.Sprintf("%d", int(r.Vcc))
		logic[i] = r.Phase
		write[i] = r.WriteWithWL
		read[i] = r.ReadWithWL
	}
	p1 := &report.Plot{
		Title:  "Figure 1 (ASCII): delay vs Vcc, y clipped at 10 a.u. like the paper",
		XLabel: "Vcc (mV)", YLabel: "delay (a.u.)", XTicks: ticks, YMax: 10,
	}
	p1.AddSeries("12FO4", '*', logic)
	p1.AddSeries("write+WL", 'w', write)
	p1.AddSeries("read+WL", 'r', read)
	if err := p1.Render(g.w); err != nil {
		return err
	}
	fmt.Fprintln(g.w)

	f11 := sim.Figure11a()
	base := make([]float64, len(f11))
	iraw := make([]float64, len(f11))
	fo24 := make([]float64, len(f11))
	for i, r := range f11 {
		base[i] = r.BaselineCycle
		iraw[i] = r.IRAWCycle
		fo24[i] = r.LogicCycle
	}
	p2 := &report.Plot{
		Title:  "Figure 11(a) (ASCII): cycle time vs Vcc",
		XLabel: "Vcc (mV)", YLabel: "cycle (a.u.)", XTicks: ticks, YMax: 45,
	}
	p2.AddSeries("24FO4", '*', fo24)
	p2.AddSeries("baseline", 'b', base)
	p2.AddSeries("IRAW", 'i', iraw)
	if err := p2.Render(g.w); err != nil {
		return err
	}
	fmt.Fprintln(g.w)
	return nil
}

func (g *gen) nsweep() error {
	rows, err := sim.NSweep(g.suite(), 500, 4)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: forced stabilization cycles N at 500mV", "N", "perf-gain", "delayed")
	for _, r := range rows {
		t.AddRow(r.N, r.PerfGain, report.Pct(r.Delayed))
	}
	return g.emit(t)
}
