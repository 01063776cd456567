package main

// Renderers for the traced run. They reproduce, byte for byte, the CSV the
// command-line tools print (cmd/figures -csv, cmd/vccsweep -csv,
// cmd/irawsim), so the traced run's output can be held to the untraced
// run's digest. A change to a tool's output format shows up here as a
// traced-vs-untraced digest mismatch.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/report"
	"lowvcc/internal/sim"
	"lowvcc/internal/stats"
	"lowvcc/internal/trace"
)

// figGen renders `figures -fig all -csv`, one span per figure computation
// ("sim.figure", its cells as children via the progress hook) and one per
// table rendering ("report.render").
type figGen struct {
	w      io.Writer
	suite  []*trace.Trace
	rec    *recorder
	parent int
	hook   *cellHook
}

func (g *figGen) all() error {
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
		if err := s.f(); err != nil {
			return fmt.Errorf("fig %s: %w", s.name, err)
		}
	}
	return nil
}

// compute runs one figure's simulation as a "sim.figure" span.
func (g *figGen) compute(name string, f func() error) error {
	id := g.rec.begin("sim.figure", g.parent, name)
	g.hook.step(id)
	err := f()
	g.rec.end(id)
	return err
}

// emit renders one table as a "report.render" span.
func (g *figGen) emit(t *report.Table) error {
	return g.rec.do("report.render", g.parent, "", func() error { return t.RenderCSV(g.w) })
}

func (g *figGen) fig1() error {
	t := report.NewTable("", "Vcc", "12FO4", "write", "read", "write+WL", "read+WL")
	for _, r := range sim.Figure1() {
		t.AddRow(r.Vcc, r.Phase, r.BitcellWrite, r.BitcellRead, r.WriteWithWL, r.ReadWithWL)
	}
	return g.emit(t)
}

func (g *figGen) fig11a() error {
	t := report.NewTable("", "Vcc", "24FO4", "baseline", "IRAW")
	for _, r := range sim.Figure11a() {
		t.AddRow(r.Vcc, r.LogicCycle, r.BaselineCycle, r.IRAWCycle)
	}
	return g.emit(t)
}

func (g *figGen) fig11b() error {
	t, err := report.NewStreamTable(g.w, true, "", "Vcc", "freq-gain", "perf-gain", "ipc-base", "ipc-iraw", "stall-cost")
	if err != nil {
		return err
	}
	var rowErr error
	err = g.compute("11b", func() error {
		_, err := sim.Figure11bStream(context.Background(), g.suite, func(r sim.Fig11bRow, fail *sim.CellError) {
			if fail != nil {
				rowErr = fmt.Errorf("%v", fail)
				return
			}
			if e := t.AddRow(r.Vcc, r.FreqGain, r.PerfGain, r.IPCBase, r.IPCIRAW, report.Pct(r.StallCost)); e != nil && rowErr == nil {
				rowErr = e
			}
		})
		return err
	})
	if err != nil {
		return err
	}
	return rowErr
}

func (g *figGen) fig12() error {
	var rows []sim.Fig12Row
	if err := g.compute("12", func() (e error) { rows, e = sim.Figure12(g.suite); return }); err != nil {
		return err
	}
	t := report.NewTable("", "Vcc", "delay", "energy", "EDP")
	for _, r := range rows {
		t.AddRow(r.Vcc, r.RelDelay, r.RelEnergy, r.RelEDP)
	}
	return g.emit(t)
}

func (g *figGen) table1() error {
	var res *sim.Table1Result
	if err := g.compute("t1", func() (e error) { res, e = sim.Table1(g.suite, 500); return }); err != nil {
		return err
	}
	t := report.NewTable("", "mechanism", "all-blocks", "adapts-Vcc", "hw-overhead", "hard-to-test",
		"freq-gain", "perf-gain", "feasible", "caveat")
	for _, r := range res.Rows {
		t.AddRow(r.Mode.String(), report.Bool(r.WorksForAllBlocks), report.Bool(r.AdaptsToVcc),
			r.HardwareOverhead, report.Bool(r.HardToTest),
			r.FreqGain, r.PerfGain, report.Bool(r.Feasible), r.Caveat)
	}
	return g.emit(t)
}

func (g *figGen) breakdown() error {
	var res *sim.BreakdownResult
	if err := g.compute("breakdown", func() (e error) { res, e = sim.Breakdown(g.suite, 575); return }); err != nil {
		return err
	}
	t := report.NewTable("", "metric", "value")
	t.AddRow("performance drop vs baseline", report.Pct(res.PerfDrop))
	t.AddRow("RF IRAW issue-stall share", report.Pct(res.RFShare))
	t.AddRow("IQ gate share", report.Pct(res.IQShare))
	t.AddRow("DL0 share (fill-stall + replay)", report.Pct(res.DL0Share))
	t.AddRow("other blocks share", report.Pct(res.OtherShare))
	return g.emit(t)
}

func (g *figGen) delayed() error {
	var res *sim.BreakdownResult
	if err := g.compute("delayed", func() (e error) { res, e = sim.Breakdown(g.suite, 500); return }); err != nil {
		return err
	}
	t := report.NewTable("", "metric", "value")
	t.AddRow("delayed fraction", report.Pct(res.DelayedFraction))
	return g.emit(t)
}

func (g *figGen) bp() error {
	var res *sim.BPStatsResult
	if err := g.compute("bp", func() (e error) { res, e = sim.BPStats(g.suite, 500); return }); err != nil {
		return err
	}
	t := report.NewTable("", "metric", "value")
	t.AddRow("BP potential corruption rate", fmt.Sprintf("%.5f%%", 100*res.PotentialCorruptionRate))
	t.AddRow("RSB conflicts", res.RSBConflicts)
	t.AddRow("return predictions", res.ReturnPredictions)
	return g.emit(t)
}

func (g *figGen) overhead() error {
	a := sim.IRAWOverheads()
	t := report.NewTable("", "metric", "value")
	t.AddRow("core SRAM bits", a.CoreSRAMBits)
	t.AddRow("IRAW extra latch bits", a.ExtraLatchBits)
	t.AddRow("area overhead", fmt.Sprintf("%.4f%%", 100*a.OverheadFraction()))
	t.AddRow("energy overhead (20x activity)", fmt.Sprintf("%.4f%%", 100*a.EnergyOverheadFraction()))
	return g.emit(t)
}

func (g *figGen) edp450() error {
	var res *sim.EDP450Result
	if err := g.compute("edp450", func() (e error) { res, e = sim.EDP450(g.suite); return }); err != nil {
		return err
	}
	t := report.NewTable("", "design", "total-J", "leakage-J")
	t.AddRow("unconstrained", report.F2(res.Unconstrained.Total()), report.F2(res.Unconstrained.Leakage))
	t.AddRow("baseline", report.F2(res.Baseline.Total()), report.F2(res.Baseline.Leakage))
	t.AddRow("IRAW", report.F2(res.IRAW.Total()), report.F2(res.IRAW.Leakage))
	return g.emit(t)
}

func (g *figGen) nsweep() error {
	var rows []sim.NSweepRow
	if err := g.compute("nsweep", func() (e error) { rows, e = sim.NSweep(g.suite, 500, 4); return }); err != nil {
		return err
	}
	t := report.NewTable("", "N", "perf-gain", "delayed")
	for _, r := range rows {
		t.AddRow(r.N, r.PerfGain, report.Pct(r.Delayed))
	}
	return g.emit(t)
}

func (g *figGen) resched() error {
	var res *sim.ReschedResult
	if err := g.compute("resched", func() (e error) { res, e = sim.CompilerResched(g.suite, 500, 8); return }); err != nil {
		return err
	}
	t := report.NewTable("", "metric", "original", "rescheduled")
	t.AddRow("delayed by RF IRAW", report.Pct(res.DelayedBefore), report.Pct(res.DelayedAfter))
	t.AddRow("IRAW speedup over baseline", report.F(res.PerfGainBefore), report.F(res.PerfGainAfter))
	return g.emit(t)
}

func (g *figGen) gate() error {
	var rows []sim.GateSensitivityRow
	if err := g.compute("gate", func() (e error) { rows, e = sim.GateSensitivity(g.suite, 500); return }); err != nil {
		return err
	}
	t := report.NewTable("", "ICI", "AI", "threshold", "IPC", "gate-share")
	for _, r := range rows {
		t.AddRow(r.ICI, r.AI, r.Threshold, r.IPC, report.Pct(r.GateShare))
	}
	return g.emit(t)
}

func (g *figGen) stableSizing() error {
	var rows []sim.STableSizingRow
	if err := g.compute("stable", func() (e error) { rows, e = sim.STableSizing(g.suite, 500); return }); err != nil {
		return err
	}
	t := report.NewTable("", "stores/cycle", "entries", "IPC", "forwards", "replay-cycles")
	for _, r := range rows {
		t.AddRow(r.StoresPerCycle, r.Entries, r.IPC, r.Forwards, r.ReplayCycles)
	}
	return g.emit(t)
}

func (g *figGen) determinism() error {
	var res *sim.DeterminismResult
	if err := g.compute("det", func() (e error) { res, e = sim.DeterminismMode(g.suite, 500); return }); err != nil {
		return err
	}
	t := report.NewTable("", "metric", "value")
	t.AddRow("default IPC", res.DefaultIPC)
	t.AddRow("deterministic IPC", res.DeterministicIPC)
	t.AddRow("default RSB conflicts", res.DefaultConflicts)
	t.AddRow("deterministic RSB stall cycles", res.DeterministicRSBStallCycles)
	return g.emit(t)
}

func (g *figGen) combined() error {
	var rows []sim.CombinedFaultyRow
	if err := g.compute("combined", func() (e error) {
		rows, e = sim.CombinedFaulty(g.suite, []circuit.Millivolts{500, 450, 400})
		return
	}); err != nil {
		return err
	}
	t := report.NewTable("", "Vcc", "iraw-freq", "combined-freq", "iraw-perf", "combined-perf", "disabled-lines")
	for _, r := range rows {
		t.AddRow(r.Vcc, r.IRAWFreqGain, r.CombinedFreqGain, r.IRAWPerfGain, r.CombinedPerfGain, r.DisabledLines)
	}
	return g.emit(t)
}

func (g *figGen) widthAblation() error {
	var rows []sim.WidthAblationRow
	if err := g.compute("width", func() (e error) {
		rows, e = sim.WidthAblation(context.Background(), g.suite, []int{1, 2, 4}, []circuit.Millivolts{600, 500, 400})
		return
	}); err != nil {
		return err
	}
	t := report.NewTable("", "width", "Vcc", "ipc-base", "ipc-iraw", "perf-gain", "width-gain")
	for _, r := range rows {
		t.AddRow(r.Width, r.Vcc, r.IPCBase, r.IPCIRAW, r.PerfGain, r.WidthGain)
	}
	return g.emit(t)
}

func (g *figGen) plots() error {
	return g.rec.do("report.render", g.parent, "plots", func() error {
		f1 := sim.Figure1()
		ticks := make([]string, len(f1))
		logic := make([]float64, len(f1))
		write := make([]float64, len(f1))
		read := make([]float64, len(f1))
		for i, r := range f1 {
			ticks[i] = fmt.Sprintf("%d", int(r.Vcc))
			logic[i], write[i], read[i] = r.Phase, r.WriteWithWL, r.ReadWithWL
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
			base[i], iraw[i], fo24[i] = r.BaselineCycle, r.IRAWCycle, r.LogicCycle
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
	})
}

// newSweepTable and addSweepRow render vccsweep's CSV table.
func newSweepTable(w io.Writer, modes []circuit.Mode) (*report.StreamTable, error) {
	header := []string{"Vcc"}
	for _, m := range modes {
		header = append(header, m.String()+"-ipc", m.String()+"-time", m.String()+"-freqgain")
	}
	return report.NewStreamTable(w, true, "", header...)
}

func addSweepRow(t *report.StreamTable, modes []circuit.Mode, v circuit.Millivolts, pts map[circuit.Mode]*sim.Point) error {
	row := []interface{}{v}
	for _, m := range modes {
		p := pts[m].Agg
		row = append(row, p.IPC(), fmt.Sprintf("%.0f", p.Time), p.Plan.FreqGain)
	}
	return t.AddRow(row...)
}

// renderIrawsim renders irawsim's report for one measured run at its
// default operating point.
func renderIrawsim(w io.Writer, tr *trace.Trace, res *core.Result) error {
	rate := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	plan := res.Plan
	t := report.NewTable(fmt.Sprintf("%s @ %v, %v design", tr.Name, plan.Vcc, plan.Mode), "metric", "value")
	t.AddRow("cycle time (a.u.)", plan.CycleTime)
	t.AddRow("IRAW active", fmt.Sprintf("%v (N=%d)", plan.IRAWActive, plan.StabilizeCycles))
	t.AddRow("frequency gain vs baseline", plan.FreqGain)
	t.AddRow("instructions", res.Run.Instructions)
	t.AddRow("cycles", res.Run.Cycles)
	t.AddRow("IPC", res.IPC())
	t.AddRow("execution time (a.u.)", res.Time)
	t.AddRow("delayed by RF IRAW", report.Pct(res.Run.DelayedFraction()))
	for _, k := range []stats.StallKind{stats.StallRFIRAW, stats.StallIQGate, stats.StallDL0IRAW,
		stats.StallOtherIRAW, stats.StallRAW, stats.StallMemory, stats.StallStructural, stats.StallFetchEmpty} {
		t.AddRow("stall "+k.String(), report.Pct(res.Run.StallFraction(k)))
	}
	t.AddRow("DL0 hit rate", report.Pct(rate(res.DL0.Hits, res.DL0.Accesses)))
	t.AddRow("UL1 hit rate", report.Pct(rate(res.UL1.Hits, res.UL1.Accesses)))
	t.AddRow("BP mispredict rate", report.Pct(rate(res.BP.Mispredicts, res.BP.Predictions)))
	t.AddRow("STable forwards", res.Mem.STableForwards)
	t.AddRow("repaired destructions", res.RepairedDestructions)
	t.AddRow("violations (RF/cache)", fmt.Sprintf("%d/%d", res.RFViolations, res.CacheViolations))
	t.AddRow("corrupt data consumed", res.CorruptConsumed)
	t.AddRow("integrity errors", res.IntegrityErrors)
	return t.Render(w)
}

// paperAnchors are the paper's headline numbers: Fig 11(b) performance
// gain over baseline and Fig 12 relative EDP, by voltage.
var paperAnchors = []struct {
	header string // the CSV table's header line
	col    int
	vcc    string
	gain   bool // compare value-1 (a gain) rather than the value itself
	want   float64
}{
	{"Vcc,freq-gain,perf-gain,ipc-base,ipc-iraw,stall-cost", 2, "500mV", true, 0.48},
	{"Vcc,freq-gain,perf-gain,ipc-base,ipc-iraw,stall-cost", 2, "400mV", true, 0.90},
	{"Vcc,delay,energy,EDP", 3, "500mV", false, 0.61},
	{"Vcc,delay,energy,EDP", 3, "450mV", false, 0.41},
	{"Vcc,delay,energy,EDP", 3, "400mV", false, 0.33},
}

// paperErrPct is the mean relative gap, in percent, between the figures
// CSV and the paper's anchors.
func paperErrPct(csv []byte) (float64, error) {
	var sum float64
	for _, a := range paperAnchors {
		v, err := csvCell(csv, a.header, a.vcc, a.col)
		if err != nil {
			return 0, err
		}
		if a.gain {
			v--
		}
		sum += math.Abs(v-a.want) / a.want
	}
	return 100 * sum / float64(len(paperAnchors)), nil
}

// csvCell finds the row starting with key in the table under header.
func csvCell(csv []byte, header, key string, col int) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(csv))
	in := false
	for sc.Scan() {
		line := sc.Text()
		if line == header {
			in = true
			continue
		}
		if !in {
			continue
		}
		f := strings.Split(line, ",")
		if !strings.HasSuffix(f[0], "mV") {
			break
		}
		if f[0] == key && col < len(f) {
			return strconv.ParseFloat(f[col], 64)
		}
	}
	return 0, fmt.Errorf("no %s row under %q", key, header)
}

func printPaperErr(csv []byte) {
	if pe, err := paperErrPct(csv); err == nil {
		fmt.Printf("  paper_err_pct %.3f %% (mean gap to Fig 11(b) perf gain @500/400mV and Fig 12 EDP @500/450/400mV)\n", pe)
	}
}
