// Memory-bound study: the paper notes performance gains trail frequency
// gains partly because "off-chip memory latency remains constant"
// (Section 5.2, effect i). This example runs a cache-hostile streaming
// workload next to a compute workload and shows the IRAW speedup shrinking
// as the memory-bound fraction grows — the faster clock just waits more
// cycles for the same nanoseconds of DRAM. It also surfaces the Store
// Table at work: forwards and store replays on the store-heavy stream.
//
// All six (design, workload) cells fan out across the experiment pool
// (-workers bounds it; -window/-warm shard long traces), and per-trace
// results come back in workload order. The example also prints the
// sweep's simulated instructions per wall-clock second, a smoke metric of
// the memory hierarchy's cost.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"lowvcc"
	"lowvcc/internal/sim"
)

func main() {
	runner := sim.Default()
	runner.RegisterFlags(flag.CommandLine, "membound", "workers", "width", "window", "warm")
	flag.Parse()

	const vcc = lowvcc.Millivolts(450)
	workloads := []lowvcc.Profile{
		lowvcc.SpecIntProfile(),
		lowvcc.WorkstationProfile(),
		lowvcc.MemBoundProfile(),
	}
	traces := make([]*lowvcc.Trace, len(workloads))
	totalInsts := 0
	for i, p := range workloads {
		traces[i] = lowvcc.GenerateTrace(p, 60000, 9)
		totalInsts += traces[i].Len()
	}

	// Run the baseline and IRAW points over every trace. The rate counts
	// measured instructions only (the unsharded path additionally executes
	// a warm-up pass per trace that it deliberately does not count): it is
	// a smoke metric, not BenchmarkMemBoundThroughput's per-pass insts/s.
	start := time.Now()
	w := runner.Width
	if w == 0 {
		w = 2 // the modelled default; DefaultConfigWidth(…, 2) == DefaultConfig
	}
	bases, _, err := sim.RunPoint(lowvcc.DefaultConfigWidth(vcc, lowvcc.ModeBaseline, w), traces)
	if err != nil {
		log.Fatal(err)
	}
	iraws, _, err := sim.RunPoint(lowvcc.DefaultConfigWidth(vcc, lowvcc.ModeIRAW, w), traces)
	if err != nil {
		log.Fatal(err)
	}
	rate := 2 * float64(totalInsts) / time.Since(start).Seconds()

	fmt.Printf("at %v (frequency gain %.2fx):\n\n", vcc,
		lowvcc.DelayModel().FreqGain(vcc))
	fmt.Println("workload     UL1-missrate  mem-stall  speedup  STable-fwd  replays")
	for i, p := range workloads {
		base, iraw := bases[i], iraws[i]
		missRate := 0.0
		if iraw.UL1.Accesses > 0 {
			missRate = float64(iraw.UL1.Misses) / float64(iraw.UL1.Accesses)
		}
		memStall := iraw.Run.StallFraction(6) // stats.StallMemory
		fmt.Printf("%-12s %8.1f%%  %8.1f%%  %6.2fx  %10d  %7d\n",
			p.Name, 100*missRate, 100*memStall, base.Time/iraw.Time,
			iraw.Mem.STableForwards, iraw.Mem.RepairedDestructions)
	}
	fmt.Println("\nthe cache-hostile stream keeps the lowest speedup: its off-chip")
	fmt.Println("portion is constant-time DRAM, which the frequency gain cannot")
	fmt.Println("touch — Section 5.2's effect (i) in isolation.")

	fmt.Printf("\nsimulator throughput: %.0f measured insts/s\n", rate)
}
