package sim

import (
	"cmp"
	"context"
	"fmt"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/energy"
	"lowvcc/internal/stats"
	"lowvcc/internal/trace"
)

// Fig1Row is one voltage's delays, normalized to a 12-FO4 clock phase at
// 700 mV (Figure 1's y-axis).
type Fig1Row struct {
	Vcc          circuit.Millivolts
	Phase        float64 // 12 FO4 (one clock phase)
	BitcellWrite float64
	BitcellRead  float64
	WriteWithWL  float64
	ReadWithWL   float64
}

// Figure1 evaluates the circuit model across the voltage range.
func Figure1() []Fig1Row {
	m := circuit.Default()
	rows := make([]Fig1Row, 0, len(circuit.Levels()))
	for _, v := range circuit.Levels() {
		rows = append(rows, Fig1Row{
			Vcc:          v,
			Phase:        m.Phase(v),
			BitcellWrite: m.BitcellWrite(v),
			BitcellRead:  m.BitcellRead(v),
			WriteWithWL:  m.WriteWithWL(v),
			ReadWithWL:   m.ReadWithWL(v),
		})
	}
	return rows
}

// Fig11aRow is one voltage's cycle times normalized to 24 FO4 at 700 mV
// (Figure 11(a)).
type Fig11aRow struct {
	Vcc           circuit.Millivolts
	LogicCycle    float64 // 24 FO4
	BaselineCycle float64 // write-delay constrained
	IRAWCycle     float64
}

// Figure11a evaluates the cycle-time curves.
func Figure11a() []Fig11aRow {
	m := circuit.Default()
	norm := 1 / m.LogicCycle(700)
	rows := make([]Fig11aRow, 0, len(circuit.Levels()))
	for _, v := range circuit.Levels() {
		rows = append(rows, Fig11aRow{
			Vcc:           v,
			LogicCycle:    m.LogicCycle(v) * norm,
			BaselineCycle: m.BaselineCycle(v) * norm,
			IRAWCycle:     m.PlanIRAW(v).CycleTime * norm,
		})
	}
	return rows
}

// Fig11bRow is one voltage's frequency and performance gain (Figure 11(b)).
type Fig11bRow struct {
	Vcc       circuit.Millivolts
	FreqGain  float64 // f_IRAW / f_baseline
	PerfGain  float64 // T_baseline / T_IRAW (suite aggregate)
	IPCBase   float64
	IPCIRAW   float64
	StallCost float64 // 1 - IPC_IRAW/IPC_base at iso-voltage
}

// Figure11b sweeps both designs over the full range and measures speedups.
func Figure11b(traces []*trace.Trace) ([]Fig11bRow, error) {
	return Figure11bStream(context.Background(), traces, nil)
}

// fig11bRow derives one voltage's row from the two designs' aggregates.
func fig11bRow(v circuit.Millivolts, base, iraw *core.Result) Fig11bRow {
	row := Fig11bRow{
		Vcc:      v,
		FreqGain: iraw.Plan.FreqGain,
		PerfGain: base.Time / iraw.Time,
		IPCBase:  base.IPC(),
		IPCIRAW:  iraw.IPC(),
	}
	if row.IPCBase > 0 {
		row.StallCost = 1 - row.IPCIRAW/row.IPCBase
	}
	return row
}

// Fig11bModes are Figure 11(b)'s two designs in its grid's mode order;
// the grid spans the full voltage range (circuit.Levels).
func Fig11bModes() []circuit.Mode { return []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW} }

// Figure11bStream is Figure11b off the streaming sweep: rows are handed to
// emit in voltage order as soon as both designs at a voltage have
// completed, so callers can render the figure progressively while the rest
// of the grid is still running. The returned slice is the complete figure,
// bit-identical to the batch Figure11b (which is implemented as this
// function with a nil emit). It is Figure11bFold over the default runner's
// StreamGrid.
func Figure11bStream(ctx context.Context, traces []*trace.Trace, emit func(row Fig11bRow, fail *CellError)) ([]Fig11bRow, error) {
	return Figure11bFold(ctx, defaultRunner.StreamGrid(ctx, traces, Fig11bModes(), circuit.Levels()), len(traces), emit)
}

// Figure11bFold derives Figure 11(b) from the cell stream of its grid
// (Fig11bModes over circuit.Levels, traces cells per point) from any
// source — a local StreamGrid or a sweep daemon's — through FoldLevels.
//
// A voltage whose cells failed (partial streams) is handed to emit with
// fail set (its row carries only the Vcc) and left out of the returned
// slice; the figure then comes back with a *PartialError listing every
// failed voltage's cell error, alongside the completed rows.
func Figure11bFold(ctx context.Context, updates <-chan PointUpdate, traces int, emit func(row Fig11bRow, fail *CellError)) ([]Fig11bRow, error) {
	if emit == nil {
		emit = func(Fig11bRow, *CellError) {}
	}
	modes, levels := Fig11bModes(), circuit.Levels()
	rows := make([]Fig11bRow, 0, len(levels))
	var failed []*CellError
	// onLevel never fails, so the fold never has to stop the stream.
	err := FoldLevels(ctx, func() {}, updates, traces, modes, levels,
		func(v circuit.Millivolts, pts map[circuit.Mode]*Point, fails map[circuit.Mode]*CellError) error {
			if len(fails) > 0 {
				// Deterministic representative: baseline's failure first.
				fail := cmp.Or(fails[circuit.ModeBaseline], fails[circuit.ModeIRAW])
				failed = append(failed, fail)
				emit(Fig11bRow{Vcc: v}, fail)
				return nil
			}
			row := fig11bRow(v, pts[circuit.ModeBaseline].Agg, pts[circuit.ModeIRAW].Agg)
			rows = append(rows, row)
			emit(row, nil)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return rows, &PartialError{Cells: failed, Total: len(modes) * len(levels)}
	}
	return rows, nil
}

// Fig12Row is one voltage's relative energy, delay and EDP (IRAW/baseline,
// Figure 12).
type Fig12Row struct {
	Vcc       circuit.Millivolts
	RelDelay  float64
	RelEnergy float64
	RelEDP    float64
	// Absolute values for the EXPERIMENTS record.
	BaseEnergy, IRAWEnergy energy.Breakdown
	BaseTime, IRAWTime     float64
}

// Figure12 measures the energy/delay/EDP curves with the calibrated model.
func Figure12(traces []*trace.Trace) ([]Fig12Row, error) {
	model, err := CalibratedEnergy(traces)
	if err != nil {
		return nil, err
	}
	sweep, err := Sweep(traces, []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW}, circuit.Levels())
	if err != nil {
		return nil, err
	}
	ovh := IRAWOverheads().EnergyOverheadFraction()
	rows := make([]Fig12Row, 0, len(circuit.Levels()))
	for _, v := range circuit.Levels() {
		base := sweep[circuit.ModeBaseline][v].Agg
		iraw := sweep[circuit.ModeIRAW][v].Agg
		be := model.Energy(v, base.Activity, base.Time, 0)
		ie := model.Energy(v, iraw.Activity, iraw.Time, ovh)
		row := Fig12Row{
			Vcc:        v,
			RelDelay:   iraw.Time / base.Time,
			RelEnergy:  ie.Total() / be.Total(),
			BaseEnergy: be, IRAWEnergy: ie,
			BaseTime: base.Time, IRAWTime: iraw.Time,
		}
		row.RelEDP = row.RelDelay * row.RelEnergy
		rows = append(rows, row)
	}
	return rows, nil
}

// Table1Row compares one mechanism at a voltage point (Table 1 made
// quantitative: the qualitative rows of the paper plus measured numbers).
type Table1Row struct {
	Mode circuit.Mode
	// Qualitative characteristics from the paper's Table 1.
	WorksForAllBlocks bool
	AdaptsToVcc       bool
	HardwareOverhead  string
	HardToTest        bool
	// Measured at the comparison point.
	FreqGain       float64
	PerfGain       float64
	IPC            float64
	DisabledLines  int
	ExtraLatchBits int
	Feasible       bool // whether the design works for every block physically
	Caveat         string
}

// Table1Result is the mechanism comparison at one voltage.
type Table1Result struct {
	Vcc  circuit.Millivolts
	Rows []Table1Row
}

// Table1 runs the three designs plus the baseline at the comparison point
// (500 mV, where the paper quotes its headline numbers).
func Table1(traces []*trace.Trace, v circuit.Millivolts) (*Table1Result, error) {
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeFaultyBits, circuit.ModeExtraBypass, circuit.ModeIRAW}
	sweep, err := Sweep(traces, modes, []circuit.Millivolts{v})
	if err != nil {
		return nil, err
	}
	base := sweep[circuit.ModeBaseline][v].Agg
	res := &Table1Result{Vcc: v}
	for _, mode := range modes {
		agg := sweep[mode][v].Agg
		row := Table1Row{
			Mode:     mode,
			FreqGain: agg.Plan.FreqGain,
			PerfGain: base.Time / agg.Time,
			IPC:      agg.IPC(),
		}
		switch mode {
		case circuit.ModeBaseline:
			row.WorksForAllBlocks = true
			row.AdaptsToVcc = true
			row.HardwareOverhead = "none"
			row.Feasible = true
			row.Caveat = "frequency limited by SRAM write delay"
		case circuit.ModeFaultyBits:
			row.WorksForAllBlocks = false // RF/IQ need all entries
			row.AdaptsToVcc = false       // fault maps per level, retest on change
			row.HardwareOverhead = "fault maps (low but costly to maintain)"
			row.HardToTest = true
			row.DisabledLines = agg.IL0.DisabledLines + agg.DL0.DisabledLines + agg.UL1.DisabledLines
			row.Feasible = false
			row.Caveat = "idealized: assumes the RF tolerates faulty entries, which it cannot"
		case circuit.ModeExtraBypass:
			row.WorksForAllBlocks = false // cache addresses known too late
			row.AdaptsToVcc = false       // bypass cost paid at every level
			row.HardwareOverhead = "high: wide latches and wires on critical paths"
			row.ExtraLatchBits = 2 * 128 // two pipelined 128-bit SIMD write latches
			row.Feasible = false
			row.Caveat = "idealized: assumes cache-like blocks need no extra bypass"
		case circuit.ModeIRAW:
			row.WorksForAllBlocks = true
			row.AdaptsToVcc = true
			row.HardwareOverhead = "low: scoreboard bits, STable, counters"
			row.ExtraLatchBits = IRAWOverheads().ExtraLatchBits
			row.Feasible = true
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// BreakdownResult reports the Section 5.2 stall decomposition at one level.
type BreakdownResult struct {
	Vcc circuit.Millivolts
	// PerfDrop is 1 - IPC_IRAW/IPC_baseline at iso-voltage (the paper's
	// 8.86% at 575 mV).
	PerfDrop float64
	// Shares decompose the IRAW-attributed stall cycles.
	RFShare, IQShare, DL0Share, OtherShare float64
	// DelayedFraction is the 13.2% statistic.
	DelayedFraction float64
}

// Breakdown measures the stall decomposition at v (the paper quotes 575 mV).
func Breakdown(traces []*trace.Trace, v circuit.Millivolts) (*BreakdownResult, error) {
	sweep, err := Sweep(traces, []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW}, []circuit.Millivolts{v})
	if err != nil {
		return nil, err
	}
	base := sweep[circuit.ModeBaseline][v].Agg
	iraw := sweep[circuit.ModeIRAW][v].Agg
	res := &BreakdownResult{
		Vcc:             v,
		DelayedFraction: iraw.Run.DelayedFraction(),
	}
	if base.IPC() > 0 {
		res.PerfDrop = 1 - iraw.IPC()/base.IPC()
	}
	cyc := float64(iraw.Run.Cycles)
	if cyc > 0 {
		sub := func(a, b uint64) float64 {
			if a <= b {
				return 0
			}
			return float64(a - b)
		}
		res.RFShare = float64(iraw.Run.IssueStalls[stats.StallRFIRAW]) / cyc
		res.IQShare = float64(iraw.Run.IssueStalls[stats.StallIQGate]) / cyc
		// Fill-port stalls exist in the baseline too (a fill occupies the
		// ports for its write cycle); only the excess is IRAW's cost.
		res.DL0Share = (float64(iraw.Run.IssueStalls[stats.StallDL0IRAW]) +
			float64(iraw.Mem.DL0ReplayStallCycles) +
			sub(iraw.DL0.FillStallCycles, base.DL0.FillStallCycles)) / cyc
		res.OtherShare = (float64(iraw.Run.IssueStalls[stats.StallOtherIRAW]) +
			sub(iraw.IL0.FillStallCycles, base.IL0.FillStallCycles) +
			sub(iraw.UL1.FillStallCycles, base.UL1.FillStallCycles) +
			sub(iraw.ITLB.FillStallCycles, base.ITLB.FillStallCycles) +
			sub(iraw.DTLB.FillStallCycles, base.DTLB.FillStallCycles)) / cyc
	}
	return res, nil
}

// BPStatsResult reports the Section 4.5 prediction-only numbers.
type BPStatsResult struct {
	PotentialCorruptionRate float64 // per prediction
	RSBConflicts            uint64
	ReturnPredictions       uint64
}

// BPStats measures the prediction-only violation statistics at v.
func BPStats(traces []*trace.Trace, v circuit.Millivolts) (*BPStatsResult, error) {
	cfg := defaultRunner.pointConfig(v, circuit.ModeIRAW)
	_, agg, err := RunPoint(cfg, traces)
	if err != nil {
		return nil, err
	}
	res := &BPStatsResult{
		RSBConflicts:      agg.BP.RSBConflicts,
		ReturnPredictions: agg.BP.ReturnPredictions,
	}
	if agg.BP.Predictions > 0 {
		res.PotentialCorruptionRate = float64(agg.BP.PotentialCorruptions) / float64(agg.BP.Predictions)
	}
	return res, nil
}

// EDP450Result is the Section 5.3 worked example: absolute energies at
// 450 mV for the unconstrained-logic, baseline and IRAW designs, scaled so
// the unconstrained case totals 5 J as in the paper's illustration.
type EDP450Result struct {
	Unconstrained, Baseline, IRAW energy.Breakdown
}

// EDP450 reproduces the worked example. The "cycle time not constrained by
// write delay" case is approximated by the IRAW design with its stalls —
// closest to a logic-limited core — rescaled onto the paper's 5 J budget.
func EDP450(traces []*trace.Trace) (*EDP450Result, error) {
	model, err := CalibratedEnergy(traces)
	if err != nil {
		return nil, err
	}
	const v = circuit.Millivolts(450)
	sweep, err := Sweep(traces, []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW}, []circuit.Millivolts{v})
	if err != nil {
		return nil, err
	}
	base := sweep[circuit.ModeBaseline][v].Agg
	iraw := sweep[circuit.ModeIRAW][v].Agg

	// Unconstrained: logic-speed clock with no IRAW stalls. Model it from
	// the baseline run's cycle count at the logic cycle time.
	m := circuit.Default()
	uncTime := float64(base.Run.Cycles) * m.LogicCycle(v)
	unc := model.Energy(v, base.Activity, uncTime, 0)
	scale := 5.0 / unc.Total()

	ovh := IRAWOverheads().EnergyOverheadFraction()
	be := model.Energy(v, base.Activity, base.Time, 0)
	ie := model.Energy(v, iraw.Activity, iraw.Time, ovh)
	return &EDP450Result{
		Unconstrained: energy.Breakdown{Dynamic: unc.Dynamic * scale, Leakage: unc.Leakage * scale},
		Baseline:      energy.Breakdown{Dynamic: be.Dynamic * scale, Leakage: be.Leakage * scale},
		IRAW:          energy.Breakdown{Dynamic: ie.Dynamic * scale, Leakage: ie.Leakage * scale},
	}, nil
}

// NSweepRow is the stabilization-cycle ablation at one N.
type NSweepRow struct {
	N        int
	PerfGain float64
	Delayed  float64
}

// NSweep forces N = 1..maxN at v and measures the cost of wider bubbles
// ("our mechanism would work also for different technology nodes or Vcc
// ranges where the number of IRAW cycles was larger", Section 5.2). The
// baseline and every forced-N point fan out together across the pool.
func NSweep(traces []*trace.Trace, v circuit.Millivolts, maxN int) ([]NSweepRow, error) {
	specs := make([]PointSpec, 0, maxN+1)
	specs = append(specs, PointSpec{
		Label: fmt.Sprintf("nsweep %v baseline", v),
		Cfg:   defaultRunner.pointConfig(v, circuit.ModeBaseline), Traces: traces,
	})
	for n := 1; n <= maxN; n++ {
		cfg := defaultRunner.pointConfig(v, circuit.ModeIRAW)
		cfg.ForcedN = n
		specs = append(specs, PointSpec{
			Label: fmt.Sprintf("nsweep %v N=%d", v, n),
			Cfg:   cfg, Traces: traces,
		})
	}
	_, aggs, err := defaultRunner.runPoints(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	base := aggs[0]
	rows := make([]NSweepRow, 0, maxN)
	for n := 1; n <= maxN; n++ {
		agg := aggs[n]
		rows = append(rows, NSweepRow{
			N:        n,
			PerfGain: base.Time / agg.Time,
			Delayed:  agg.Run.DelayedFraction(),
		})
	}
	return rows, nil
}

// ValidationResult is the correctness evidence: with avoidance on, nothing
// unsafe is ever consumed; with it off at the same clock, corruption shows.
type ValidationResult struct {
	SafeCorrupt, SafeIntegrity      uint64
	UnsafeViolations, UnsafeCorrupt uint64
}

// Validate runs the safety experiment at v. The safe and unsafe variants
// fan out together through one runPoints call, so the pool never drains
// between them.
func Validate(traces []*trace.Trace, v circuit.Millivolts) (*ValidationResult, error) {
	safeCfg := defaultRunner.pointConfig(v, circuit.ModeIRAW)
	unsafeCfg := defaultRunner.pointConfig(v, circuit.ModeIRAW)
	unsafeCfg.DisableAvoidance = true
	_, aggs, err := defaultRunner.runPoints(context.Background(), []PointSpec{
		{Label: fmt.Sprintf("validate %v safe", v), Cfg: safeCfg, Traces: traces},
		{Label: fmt.Sprintf("validate %v unsafe", v), Cfg: unsafeCfg, Traces: traces},
	})
	if err != nil {
		return nil, err
	}
	safe, uns := aggs[0], aggs[1]
	return &ValidationResult{
		SafeCorrupt:      safe.CorruptConsumed,
		SafeIntegrity:    safe.IntegrityErrors,
		UnsafeViolations: uns.RFViolations + uns.CacheViolations,
		UnsafeCorrupt:    uns.CorruptConsumed,
	}, nil
}

// String renders a compact summary for one Fig11b row (used by cmd tools).
func (r Fig11bRow) String() string {
	return fmt.Sprintf("%v freq x%.2f perf x%.2f (ipc %.3f -> %.3f)",
		r.Vcc, r.FreqGain, r.PerfGain, r.IPCBase, r.IPCIRAW)
}
