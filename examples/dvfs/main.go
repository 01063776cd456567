// DVFS scenario (Section 4.1.3): a single core moves through voltage
// phases — high-Vcc bursts and low-Vcc battery-saver stretches — and the
// IRAW machinery reconfigures at each transition: the scoreboard bubble,
// the IQ occupancy threshold, the STable size and the port-stall counters
// all follow the new level. Caches stay warm across phases (one persistent
// core), exactly what a mobile workload sees.
//
// Next to the serial phase walk, every phase's steady-state reference — a
// fresh core at the phase's voltage over the same trace — fans out across
// the experiment pool (-workers bounds it; -window/-warm shard long phase
// traces into sample windows), so the printout contrasts the
// warm-across-transitions DVFS trajectory with the isolated operating
// points while the references simulate concurrently.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"lowvcc"
	"lowvcc/internal/sim"
)

func main() {
	insts := flag.Int("insts", 40000, "instructions per phase trace")
	runner := sim.Default()
	runner.RegisterFlags(flag.CommandLine, "dvfs", "workers", "window", "warm")
	flag.Parse()

	// A phone-like duty cycle: interactive burst, idle scroll, video.
	phases := []struct {
		name string
		vcc  lowvcc.Millivolts
		prof lowvcc.Profile
	}{
		{"interactive burst", 700, lowvcc.OfficeProfile()},
		{"background sync", 500, lowvcc.ServerProfile()},
		{"video decode", 475, lowvcc.MultimediaProfile()},
		{"idle housekeeping", 400, lowvcc.KernelProfile()},
		{"interactive burst", 675, lowvcc.OfficeProfile()},
	}
	traces := make([]*lowvcc.Trace, len(phases))
	for i, ph := range phases {
		traces[i] = lowvcc.GenerateTrace(ph.prof, *insts, uint64(i+1))
	}

	// Steady-state references: one operating point per phase, all fanned
	// across one pool (each phase's trace shards into sample windows when
	// -window is set). Stream emission order is completion order; results
	// are placed by point index, so the output is deterministic.
	specs := make([]sim.PointSpec, len(phases))
	for i, ph := range phases {
		specs[i] = sim.PointSpec{
			Label:  ph.name,
			Cfg:    lowvcc.DefaultConfig(ph.vcc, lowvcc.ModeIRAW),
			Traces: []*lowvcc.Trace{traces[i]},
		}
	}
	steady := make([]*lowvcc.Result, len(phases))
	for u := range runner.Stream(context.Background(), specs) {
		if u.Err != nil {
			log.Fatal(u.Err)
		}
		steady[u.Point] = u.Result
	}

	// The serial DVFS walk: one persistent core, reconfigured per phase.
	c := lowvcc.MustNewCore(lowvcc.DefaultConfig(700, lowvcc.ModeIRAW))
	fmt.Println("phase               Vcc    N  freq-gain  IPC    steady-IPC  time(a.u.)")
	var total float64
	for i, ph := range phases {
		if err := c.Reconfigure(ph.vcc); err != nil {
			log.Fatal(err)
		}
		res, err := c.Run(traces[i])
		if err != nil {
			log.Fatal(err)
		}
		plan := res.Plan
		fmt.Printf("%-18s  %-5v  %d  %-9.2f  %.3f  %.3f       %.0f\n",
			ph.name, ph.vcc, plan.StabilizeCycles, plan.FreqGain,
			res.IPC(), steady[i].IPC(), res.Time)
		total += res.Time
		if res.CorruptConsumed != 0 {
			log.Fatalf("phase %q consumed corrupt data", ph.name)
		}
	}
	fmt.Printf("total time: %.0f a.u. — zero corruption across %d reconfigurations\n",
		total, len(phases))
	fmt.Println("steady-IPC is each phase in isolation (fresh core, pooled);")
	fmt.Println("the DVFS walk keeps caches warm across transitions, so its")
	fmt.Println("phases meet warmer state than their isolated counterparts.")
}
