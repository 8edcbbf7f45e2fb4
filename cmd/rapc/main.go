// Command rapc is the regex-to-hardware compiler front end: it reads
// patterns (one per line from files or arguments), runs the Fig 9
// decision graph and the mapper, and prints the chosen mode, resource
// usage and placement summary per pattern.
//
//	rapc 'ab{10,48}c' 'abcdef' 'a(b|c)*d'
//	rapc -f rules.txt -depth 16 -bin 8 -v
//
// With -diff it instead compares two deployment images written by
// -bitstream and reports the delta bitstream a live reconfiguration
// would ship, next to the full-image redeploy cost:
//
//	rapc -bitstream old.img 'cat' && rapc -bitstream new.img 'dog'
//	rapc -diff old.img new.img
//
// With -explain it prints how the software reference matcher runs each
// pattern of the ruleset, compiled as one set the way a served program is:
// the engine, the kernel that scans it (with control-state and bit-vector
// sizes for NBVA patterns), and whether it sits behind the
// mandatory-literal prefilter (and with which literals) or on the
// always-on scan path, and why.
//
//	rapc -explain 'ab.needle.*' '[a-z]+'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/automata"
	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/mapper"
	"repro/internal/metrics"
	"repro/internal/mnrl"
	"repro/internal/patfile"
	"repro/internal/reconfig"
	"repro/internal/refmatch"
	"repro/internal/regexast"
	"repro/internal/sim"
)

func main() {
	file := flag.String("f", "", "read patterns from file (one per line, # comments)")
	depth := flag.Int("depth", 8, "NBVA bit-vector depth (4, 8, 16, 32)")
	bin := flag.Int("bin", 8, "LNFA bin size (1..32)")
	threshold := flag.Int("threshold", 16, "bounded-repetition unfolding threshold")
	verbose := flag.Bool("v", false, "print per-pattern decision trails")
	analyze := flag.Bool("analyze", false, "estimate per-pattern DFA size (capped subset construction)")
	mnrlOut := flag.String("mnrl", "", "export the basic-NFA forms as an MNRL file")
	floorplan := flag.Bool("floorplan", false, "print the ASCII tile floor plan of the placement")
	bitstreamOut := flag.String("bitstream", "", "write the deployment configuration image to a file")
	diff := flag.Bool("diff", false, "diff two image files (old.img new.img) into a reconfiguration delta")
	explain := flag.Bool("explain", false, "print the per-pattern engine, scan kernel and literal-prefilter verdict of the software matcher")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: rapc -diff old.img new.img")
			os.Exit(2)
		}
		if err := diffImages(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	patterns := flag.Args()
	if *file != "" {
		pats, err := patfile.Read(*file)
		if err != nil {
			fatal(err)
		}
		patterns = append(patterns, pats...)
	}
	if len(patterns) == 0 {
		fmt.Fprintln(os.Stderr, "usage: rapc [flags] pattern...   (or -f file)")
		os.Exit(2)
	}

	if *explain {
		if err := explainPrefilter(os.Stdout, patterns); err != nil {
			fatal(err)
		}
		return
	}

	if *threshold < 0 {
		fatal(fmt.Errorf("-threshold %d must not be negative", *threshold))
	}
	res := compile.Compile(patterns, compile.Options{UnfoldThreshold: *threshold})
	t := &metrics.Table{
		Name:   "Compilation",
		Header: []string{"#", "Pattern", "Mode", "STEs", "BV bits", "Unfolded"},
	}
	if *analyze {
		t.Header = append(t.Header, "DFA states")
	}
	for i := range res.Regexes {
		c := &res.Regexes[i]
		if c.Source == "" {
			cells := []interface{}{i, patterns[i], "ERROR", "-", "-", "-"}
			if *analyze {
				cells = append(cells, "-")
			}
			t.AddRow(cells...)
			continue
		}
		cells := []interface{}{i, truncate(c.Source, 40), c.Mode.String(), c.STEs, c.BVBits, c.UnfoldedSTEs}
		if *analyze {
			cells = append(cells, dfaCell(c.Source))
		}
		t.AddRow(cells...)
		if *verbose {
			fmt.Printf("  #%d: %s\n", i, c.DecisionTrail)
		}
	}
	fmt.Println(t.String())
	if *mnrlOut != "" {
		if err := exportMNRL(*mnrlOut, patterns); err != nil {
			fatal(err)
		}
		fmt.Printf("MNRL export: %s\n", *mnrlOut)
	}
	for _, err := range res.Errors {
		fmt.Fprintf(os.Stderr, "rapc: %v\n", err)
	}

	p, err := mapper.Map(res, mapper.Options{Depth: *depth, BinSize: *bin})
	if err != nil {
		fatal(err)
	}
	area := sim.RAPArea(p)
	fmt.Printf("Placement: %d arrays, %d tiles, %d banks, %.4f mm² (depth %d, bin %d)\n",
		len(p.Arrays), p.TilesUsed(), p.Banks(), area.TotalMM2(), *depth, *bin)
	if *floorplan {
		fmt.Println()
		fmt.Print(p.Floorplan())
	}
	if *bitstreamOut != "" {
		img, err := bitstream.Build(res, p)
		if err != nil {
			fatal(err)
		}
		data, err := img.MarshalBinary()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*bitstreamOut, data, 0o644); err != nil {
			fatal(err)
		}
		st := img.Summarize()
		fmt.Printf("Bitstream: %s (%d bytes; %d CC cols, %d BV cols, %d local dots, %d global dots)\n",
			*bitstreamOut, st.SizeBytes, st.CCColumns, st.BVColumns, st.SwitchDots, st.GlobalDots)
	}
	shares := res.ModeShares()
	fmt.Printf("Mode shares: NFA %.0f%%, NBVA %.0f%%, LNFA %.0f%%\n",
		100*shares[compile.ModeNFA], 100*shares[compile.ModeNBVA], 100*shares[compile.ModeLNFA])
}

// explainPrefilter compiles the patterns as one ruleset through the
// software reference matcher and prints per pattern the engine and kernel
// that scan it there and its fast-path verdict: the mandatory literal set
// gating it, or the reason it stays always-on. Kernels and tiers belong to
// the set (the literal union's scanner, the Shift-And packing), so a
// pattern compiled alone would describe a matcher nobody serves. A pattern
// that does not compile keeps its row, with the error, and the rest are
// explained as the set without it.
func explainPrefilter(w io.Writer, patterns []string) error {
	ctx := context.Background()
	rowErr := make([]error, len(patterns))
	m, err := refmatch.Compile(ctx, patterns, refmatch.Options{})
	if err != nil {
		var served []string
		for i, p := range patterns {
			if _, rowErr[i] = refmatch.Compile(ctx, []string{p}, refmatch.Options{}); rowErr[i] == nil {
				served = append(served, p)
			}
		}
		if m, err = refmatch.Compile(ctx, served, refmatch.Options{}); err != nil {
			return err
		}
	}
	t := &metrics.Table{
		Name:   "Fast-path verdicts (software reference matcher)",
		Header: []string{"#", "Pattern", "Engine", "Kernel", "Fast path"},
	}
	engines, kernels, verdicts := m.Engines(), m.Kernels(), m.PrefilterVerdicts()
	j := 0 // index among the patterns that compiled
	for i, p := range patterns {
		if rowErr[i] != nil {
			t.AddRow(i, truncate(p, 40), "ERROR", "", rowErr[i].Error())
			continue
		}
		t.AddRow(i, truncate(p, 40), engines[j].String(), kernels[j], verdicts[j].String())
		j++
	}
	_, err = fmt.Fprintln(w, t.String())
	return err
}

// diffImages loads two deployment images, computes the reconfiguration
// delta between them and prints its records, serialized size and modeled
// reload cost next to a full-image redeploy of the target.
func diffImages(oldPath, newPath string) error {
	oldImg, err := loadImage(oldPath)
	if err != nil {
		return err
	}
	newImg, err := loadImage(newPath)
	if err != nil {
		return err
	}
	d := reconfig.Diff(oldImg, newImg)

	t := &metrics.Table{
		Name:   "Delta records",
		Header: []string{"Record", "Count"},
	}
	t.AddRow("array replace", len(d.Replaces))
	t.AddRow("array header", len(d.Headers))
	t.AddRow("tile meta", len(d.TileMetas))
	t.AddRow("CAM column", len(d.Codes))
	t.AddRow("local switch row", len(d.LocalRows))
	t.AddRow("global switch row", len(d.GlobalRows))
	t.AddRow("total", d.Records())
	fmt.Println(t.String())

	inc := reconfig.CostOf(d)
	full := reconfig.FullCost(newImg)
	touched := len(d.TouchedArrays())
	fmt.Printf("Arrays: %d touched of %d in target\n", touched, len(newImg.Arrays))
	fmt.Printf("Bitstream: delta %d bytes vs full image %d bytes (%s smaller)\n",
		d.SizeBytes(), newImg.SizeBytes(), metrics.Ratio(float64(newImg.SizeBytes()), float64(d.SizeBytes())))
	fmt.Printf("Reload:    delta %d cycles, %.1f pJ, %.3f µs\n",
		inc.ReloadCycles, inc.EnergyPJ, inc.LatencyUS())
	fmt.Printf("Full:      %d cycles, %.1f pJ, %.3f µs\n",
		full.ReloadCycles, full.EnergyPJ, full.LatencyUS())
	if plan, err := reconfig.Schedule(d, newImg); err == nil {
		fmt.Printf("Schedule:  %d arrays stall for %d cycles (%.3f µs); %d arrays keep matching\n",
			touched, plan.StallCycles, plan.LatencyUS(), plan.UntouchedArrays)
	}
	return nil
}

func loadImage(path string) (*bitstream.Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	img, err := bitstream.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return img, nil
}

// dfaCell estimates the DFA size of one pattern (capped), the §2.1
// blowup the NFA/NBVA execution avoids.
func dfaCell(pattern string) string {
	re, err := regexast.Parse(pattern)
	if err != nil {
		return "-"
	}
	nfa, err := automata.Glushkov(re, 0)
	if err != nil {
		return ">cap"
	}
	res := automata.DFASize(nfa, 50000)
	if res.Capped {
		return fmt.Sprintf(">%d", res.States)
	}
	return fmt.Sprintf("%d", res.States)
}

// exportMNRL writes the basic-NFA form of every pattern as MNRL.
func exportMNRL(path string, patterns []string) error {
	f := &mnrl.File{}
	for _, p := range patterns {
		re, err := regexast.Parse(p)
		if err != nil {
			return err
		}
		nfa, err := automata.Glushkov(re, 0)
		if err != nil {
			return fmt.Errorf("%q: %w", p, err)
		}
		f.Networks = append(f.Networks, mnrl.FromNFA(p, nfa))
	}
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	return mnrl.Write(w, f)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapc:", err)
	os.Exit(1)
}
