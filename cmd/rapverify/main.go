// Command rapverify runs the differential verification harness: random
// pattern sets and inputs through the RAP cycle simulator, the CAMA / CA /
// BVAP baselines, the software reference matcher, and Go's regexp package,
// reporting any disagreement. It is the standing form of the paper's
// §5.2 Hyperscan consistency check.
//
//	rapverify -trials 200 -patterns 8 -len 5000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/verify"
)

func main() {
	trials := flag.Int("trials", 100, "number of random (pattern set, input) trials")
	patterns := flag.Int("patterns", 6, "patterns per trial")
	inputLen := flag.Int("len", 2000, "input length per trial")
	seed := flag.Int64("seed", 1, "PRNG seed")
	stdlib := flag.Bool("stdlib", true, "also cross-check against Go's regexp")
	flag.Parse()
	if *patterns < 0 || *inputLen < 0 {
		fmt.Fprintf(os.Stderr, "rapverify: -patterns and -len must not be negative (got %d and %d)\n", *patterns, *inputLen)
		os.Exit(2)
	}

	res, err := verify.Run(verify.Options{
		Trials:           *trials,
		PatternsPerTrial: *patterns,
		InputLen:         *inputLen,
		Seed:             *seed,
		CheckStdlib:      *stdlib,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rapverify:", err)
		os.Exit(1)
	}
	fmt.Printf("rapverify: %d trials, engines %v, %d total matches\n",
		res.Trials, res.Engines, res.Matches)
	if len(res.Mismatches) == 0 {
		fmt.Println("all engines agree ✓")
		return
	}
	for _, m := range res.Mismatches {
		fmt.Println("MISMATCH:", m.String())
	}
	os.Exit(1)
}
