// Command vccsweep sweeps the full voltage range for one or more designs
// and prints the frequency/performance/EDP series (the data behind
// Figures 11 and 12). Rows render progressively: each voltage's line is
// written the moment every design at that level has finished simulating,
// while the rest of the grid is still running.
//
//	vccsweep -insts 60000 -seeds 2
//	vccsweep -modes baseline,iraw,faultybits
//	vccsweep -insts 500000 -window 50000 -progress   # sharded long traces
//	vccsweep -server 127.0.0.1:7077                  # run on a sweepd daemon
//
// With -server the sweep executes on a sweepd daemon (and its workers)
// instead of in-process, and its ID prints on stderr ("vccsweep: sweep
// sweep-N"). -server only chooses where the cells come from: both paths
// feed one fold (sim.FoldLevels) and one renderer, so the table is
// bit-identical to the local run's.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"lowvcc/internal/circuit"
	"lowvcc/internal/report"
	"lowvcc/internal/service"
	"lowvcc/internal/sim"
)

func main() {
	insts := flag.Int("insts", 40000, "instructions per trace")
	seeds := flag.Int("seeds", 1, "traces per workload class")
	modesFlag := flag.String("modes", "baseline,iraw", "comma-separated designs to sweep")
	csv := flag.Bool("csv", false, "emit CSV")
	server := flag.String("server", "", "run the sweep on a sweepd daemon at this address instead of in-process")
	sim.Default().RegisterFlags(flag.CommandLine, "vccsweep")
	flag.Parse()

	suite := sim.SuiteSpec{InstsPerTrace: *insts, SeedsPerProfile: *seeds}
	if err := run(*server, suite, *modesFlag, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "vccsweep:", err)
		os.Exit(1)
	}
}

// run renders the sweep table. Each voltage's row prints as soon as every
// requested design at that level has landed (rows stay in voltage order:
// a finished level waits for slower earlier levels). With -allow-partial
// locally, and always on a daemon, failed operating points render as
// FAIL(reason) cells and the sweep keeps going.
func run(server string, suite sim.SuiteSpec, modesFlag string, csv bool) error {
	modes, err := sim.ParseModes(modesFlag)
	if err != nil {
		return err
	}
	t, err := newSweepTable(modes, csv)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := sim.Default().SweepSpec(suite, modes)
	id, updates, err := service.OpenSweep(ctx, server, sim.Default(), spec)
	if err != nil {
		return err
	}
	if id != "" {
		fmt.Fprintln(os.Stderr, "vccsweep: sweep", id)
	}
	failed := 0
	err = sim.FoldLevels(ctx, cancel, updates, spec.TracesPerPoint(), modes, spec.Levels(),
		func(v circuit.Millivolts, pts map[circuit.Mode]*sim.Point, fails map[circuit.Mode]*sim.CellError) error {
			n, err := addSweepRow(t, modes, v, pts, fails)
			failed += n
			return err
		})
	if err != nil {
		return err
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "vccsweep: %d operating point(s) failed; rows marked FAIL\n", failed)
	}
	return nil
}

// newSweepTable builds the sweep's stream table.
func newSweepTable(modes []circuit.Mode, csv bool) (*report.StreamTable, error) {
	header := []string{"Vcc"}
	for _, m := range modes {
		header = append(header, m.String()+"-ipc", m.String()+"-time", m.String()+"-freqgain")
	}
	return report.NewStreamTable(os.Stdout, csv, "Vcc sweep (time in phase-at-700mV units)", header...)
}

// addSweepRow renders one voltage's row and returns how many of its
// operating points failed.
func addSweepRow(t *report.StreamTable, modes []circuit.Mode, v circuit.Millivolts, pts map[circuit.Mode]*sim.Point, fails map[circuit.Mode]*sim.CellError) (int, error) {
	failed := 0
	row := []interface{}{v}
	for _, m := range modes {
		if ce := fails[m]; ce != nil {
			failed++
			row = append(row, "FAIL("+ce.Reason(32)+")", "-", "-")
			continue
		}
		p := pts[m].Agg
		row = append(row, p.IPC(), fmt.Sprintf("%.0f", p.Time), p.Plan.FreqGain)
	}
	return failed, t.AddRow(row...)
}
