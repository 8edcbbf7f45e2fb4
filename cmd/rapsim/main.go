// Command rapsim runs the cycle-level simulator: it compiles a pattern
// set, maps it, streams an input file (or a generated synthetic stream)
// through the modeled hardware and reports matches, energy, area,
// throughput and power. The -arch flag selects RAP or one of the §5
// baselines.
//
//	rapsim -p 'ab{10,48}c' -p 'needle' -in data.bin
//	rapsim -f rules.txt -gen Snort -len 100000 -arch CAMA
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/mnrl"
	"repro/internal/patfile"
	"repro/internal/sim"
	"repro/internal/workload"
)

type patternList []string

func (p *patternList) String() string     { return strings.Join(*p, ",") }
func (p *patternList) Set(s string) error { *p = append(*p, s); return nil }

func main() {
	var patterns patternList
	flag.Var(&patterns, "p", "pattern (repeatable)")
	file := flag.String("f", "", "read patterns from file (one per line)")
	mnrlFile := flag.String("mnrl", "", "load pre-compiled automata from an MNRL file (NFA mode)")
	inFile := flag.String("in", "", "input stream file")
	gen := flag.String("gen", "", "generate input from a synthetic dataset profile (RegexLib, Prosite, SpamAssassin, Snort, Suricata, Yara, ClamAV)")
	genLen := flag.Int("len", 100000, "generated input length")
	seed := flag.Int64("seed", 1, "generation seed")
	archName := flag.String("arch", "RAP", "architecture: RAP, RAP-NFA, CAMA, CA, BVAP")
	depth := flag.Int("depth", 8, "NBVA bit-vector depth")
	bin := flag.Int("bin", 8, "LNFA bin size")
	traceFile := flag.String("trace", "", "write JSONL cycle trace (matches, BV phases) to a file")
	flag.Parse()
	if *traceFile != "" && *archName != string(core.RAP) {
		fmt.Fprintf(os.Stderr, "rapsim: -trace records RAP's cycle trace; it needs -arch RAP, not %q\n", *archName)
		os.Exit(2)
	}
	if *genLen < 0 {
		fmt.Fprintf(os.Stderr, "rapsim: -len %d must not be negative\n", *genLen)
		os.Exit(2)
	}

	if *file != "" {
		pats, err := patfile.Read(*file)
		if err != nil {
			fatal(err)
		}
		patterns = append(patterns, pats...)
	}
	var input []byte
	switch {
	case *inFile != "":
		var err error
		if input, err = os.ReadFile(*inFile); err != nil {
			fatal(err)
		}
	case *gen != "":
		d, err := workload.Generate(*gen, 1, *seed)
		if err != nil {
			fatal(err)
		}
		if len(patterns) == 0 {
			patterns = d.Patterns
		}
		input = d.Input(*genLen, *seed+100)
	default:
		fmt.Fprintln(os.Stderr, "rapsim: need -in FILE or -gen DATASET")
		os.Exit(2)
	}
	if *mnrlFile != "" {
		runMNRL(*mnrlFile, input)
		return
	}
	if len(patterns) == 0 {
		fmt.Fprintln(os.Stderr, "rapsim: no patterns (use -p, -f, -mnrl, or -gen)")
		os.Exit(2)
	}

	eng := core.New(core.Config{Depth: *depth, BinSize: *bin})
	if *archName == string(core.RAP) {
		prog, err := eng.Compile(patterns)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Compiled %d patterns: %d STEs, %.4f mm², %d arrays\n",
			len(patterns), prog.STEs(), prog.AreaMM2(), len(prog.Placement.Arrays))
		if *traceFile != "" {
			tf, err := os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			if err := sim.Trace(prog.Result, prog.Placement, input, tf); err != nil {
				fatal(err)
			}
			tf.Close()
			fmt.Printf("Trace written to %s\n", *traceFile)
		}
	}
	reps, err := eng.Compare(patterns, input, core.Arch(*archName))
	if err != nil {
		fatal(err)
	}
	rep := reps[0]
	fmt.Println(rep.String())
	fmt.Printf("  cycles: %d (stalls %d, IO interrupts %d), energy breakdown (pJ): CAM %.0f, switch %.0f, global %.0f, ctrl %.0f, BVM %.0f, wire %.0f, leak %.0f\n",
		rep.Cycles, rep.StallCycles, rep.IOInterrupts,
		rep.Energy.CAM, rep.Energy.LocalSwitch, rep.Energy.GlobalSwitch,
		rep.Energy.Controller, rep.Energy.BVM, rep.Energy.Wire, rep.Energy.Leakage)
	if len(rep.PerRegex) > 0 {
		type hit struct {
			ri int
			n  int64
		}
		var hits []hit
		for ri, n := range rep.PerRegex {
			hits = append(hits, hit{ri, n})
		}
		sort.Slice(hits, func(i, j int) bool {
			return hits[i].n > hits[j].n || hits[i].n == hits[j].n && hits[i].ri < hits[j].ri
		})
		fmt.Println("  top matching patterns:")
		for i, h := range hits {
			if i >= 5 {
				break
			}
			label := fmt.Sprintf("#%d", h.ri)
			if h.ri < len(patterns) {
				label = fmt.Sprintf("%q", truncatePattern(patterns[h.ri], 40))
			}
			fmt.Printf("    %6d  %s\n", h.n, label)
		}
	}
}

func truncatePattern(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// runMNRL simulates pre-compiled automata loaded from an MNRL file in
// RAP's NFA mode.
func runMNRL(path string, input []byte) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	file, err := mnrl.Read(f)
	if err != nil {
		fatal(err)
	}
	nets := file.Networks
	nfaList := make([]*automata.NFA, 0, len(nets))
	ids := make([]string, 0, len(nets))
	for _, net := range nets {
		nfa, err := net.ToNFA()
		if err != nil {
			fatal(fmt.Errorf("network %s: %w", net.ID, err))
		}
		nfaList = append(nfaList, nfa)
		ids = append(ids, net.ID)
	}
	res := compile.FromNFAs(nfaList, ids)
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		fatal(err)
	}
	rep, err := sim.SimulateRAP(res, p, input)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("MNRL: %d networks in NFA mode\n", len(nfaList))
	fmt.Println(rep.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapsim:", err)
	os.Exit(1)
}
