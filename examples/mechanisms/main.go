// Mechanism shoot-out (Table 1): IRAW avoidance against the two
// state-of-the-art alternatives for overriding SRAM write delay —
// Faulty Bits (re-margin to 4 sigma, disable failing lines) and Extra
// Bypass (pipeline writes, widen the bypass network). Both comparators run
// in their *idealized* forms (Faulty Bits pretends the RF tolerates bad
// entries; Extra Bypass pretends caches need none), and IRAW still wins on
// frequency and end-to-end performance while remaining the only mechanism
// that is actually feasible for every SRAM block of the core.
package main

import (
	"flag"
	"fmt"
	"log"

	"lowvcc"
	"lowvcc/internal/sim"
)

func main() {
	sim.Default().RegisterFlags(flag.CommandLine, "mechanisms", "workers", "width")
	flag.Parse()

	traces := lowvcc.StandardSuite(30000, 1)
	res, err := sim.Table1(traces, 500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mechanism comparison at %v (suite of %d traces)\n\n", res.Vcc, len(traces))
	fmt.Println("mechanism    all-blocks  adapts-Vcc  hard-to-test  freq-gain  perf-gain  feasible")
	for _, r := range res.Rows {
		fmt.Printf("%-12s %-11s %-11s %-13s %8.2fx %9.2fx  %s\n",
			r.Mode, yn(r.WorksForAllBlocks), yn(r.AdaptsToVcc), yn(r.HardToTest),
			r.FreqGain, r.PerfGain, yn(r.Feasible))
		if r.Caveat != "" {
			fmt.Printf("             ^ %s\n", r.Caveat)
		}
	}
	fmt.Println("\nIRAW avoidance is the only design that reaches near-logic frequency")
	fmt.Println("while working for the register file, the instruction queue, and every")
	fmt.Println("cache-like block — with reconfiguration at each Vcc level (Table 1).")
}

func yn(b bool) string {
	if b {
		return "YES"
	}
	return "NO"
}
