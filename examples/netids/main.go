// Network intrusion detection example (the paper's motivating workload,
// §1): a Snort-like rule set runs against a synthetic traffic stream on
// RAP and on the CAMA and CA baselines, reporting the energy-efficiency
// and compute-density gaps the paper's Fig 12 quantifies.
//
//	go run ./examples/netids
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	// A Snort-flavored synthetic rule set: content strings, bounded
	// repetitions (header lengths), and general regexes.
	ds := workload.MustGenerate("Snort", 0.5, 7)
	traffic := ds.Input(200_000, 42)
	fmt.Printf("Rule set: %d patterns; traffic: %d bytes\n\n", len(ds.Patterns), len(traffic))

	eng := core.NewDefault()
	prog, err := eng.Compile(ds.Patterns)
	if err != nil {
		log.Fatal(err)
	}
	shares := prog.ModeShares()
	fmt.Printf("Compiler decision shares: %.0f%% NFA, %.0f%% NBVA, %.0f%% LNFA\n\n",
		100*shares[0], 100*shares[1], 100*shares[2])

	reports, err := eng.Compare(ds.Patterns, traffic, core.RAP, core.CAMA, core.CA)
	if err != nil {
		log.Fatal(err)
	}
	rap := reports[0]
	fmt.Println("Architecture comparison on this rule set:")
	for _, r := range reports {
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("\nRAP vs CAMA: %.1fx energy efficiency, %.1fx compute density\n",
		rap.EnergyEfficiency()/reports[1].EnergyEfficiency(),
		rap.ComputeDensity()/reports[1].ComputeDensity())
	fmt.Printf("RAP vs CA:   %.1fx energy efficiency, %.1fx compute density\n",
		rap.EnergyEfficiency()/reports[2].EnergyEfficiency(),
		rap.ComputeDensity()/reports[2].ComputeDensity())

	if rap.Matches != reports[1].Matches || rap.Matches != reports[2].Matches {
		log.Fatal("simulators disagree on match count")
	}
	fmt.Printf("\nAll three simulators report %d alerts ✓\n", rap.Matches)
}
