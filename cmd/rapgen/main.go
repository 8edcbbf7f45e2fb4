// Command rapgen materializes the synthetic benchmarks: pattern files
// (one regex per line), input streams with planted matches, and optional
// MNRL exports of the compiled basic NFAs (the format the RAP artifact
// ships its datasets in).
//
//	rapgen -data Snort -out ./data              # Snort.txt + Snort.input
//	rapgen -data All -scale 0.5 -mnrl -out ./data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	anmlpkg "repro/internal/anml"
	"repro/internal/automata"
	"repro/internal/mnrl"
	"repro/internal/regexast"
	"repro/internal/workload"
)

func main() {
	data := flag.String("data", "All", "dataset name or All: "+strings.Join(workload.Names, ", "))
	scale := flag.Float64("scale", 1.0, "pattern count scale factor")
	seed := flag.Int64("seed", 1, "generation seed")
	inputLen := flag.Int("len", 100000, "input stream length")
	out := flag.String("out", ".", "output directory")
	doMNRL := flag.Bool("mnrl", false, "also export compiled basic NFAs as MNRL JSON")
	doANML := flag.Bool("anml", false, "also export compiled basic NFAs as ANML XML")
	anml := flag.Bool("anmlzoo", false, "generate the ANMLZoo-like set instead")
	flag.Parse()
	if *inputLen < 0 {
		fatal(fmt.Errorf("-len %d must not be negative", *inputLen))
	}

	names := []string{*data}
	if *data == "All" {
		names = workload.Names
		if *anml {
			names = workload.ANMLZooNames
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, name := range names {
		var d *workload.Dataset
		var err error
		if *anml {
			d, err = workload.GenerateANMLZoo(name, *scale, *seed)
		} else {
			d, err = workload.Generate(name, *scale, *seed)
		}
		if err != nil {
			fatal(err)
		}
		base := strings.ReplaceAll(d.Name, "/", "_")
		patPath := filepath.Join(*out, base+".txt")
		if err := os.WriteFile(patPath, []byte(strings.Join(d.Patterns, "\n")+"\n"), 0o644); err != nil {
			fatal(err)
		}
		inPath := filepath.Join(*out, base+".input")
		if err := os.WriteFile(inPath, d.Input(*inputLen, *seed+100), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d patterns -> %s, %d-byte input -> %s\n",
			d.Name, len(d.Patterns), patPath, *inputLen, inPath)
		if *doMNRL || *doANML {
			nfas, sources, skipped := compileNFAs(d.Patterns)
			if *doMNRL {
				f := &mnrl.File{}
				for i, nfa := range nfas {
					f.Networks = append(f.Networks, mnrl.FromNFA(sources[i], nfa))
				}
				mPath := filepath.Join(*out, base+".mnrl")
				if err := writeTo(mPath, func(w *os.File) error { return mnrl.Write(w, f) }); err != nil {
					fatal(err)
				}
				fmt.Printf("  MNRL: %d networks -> %s (%d skipped over capacity)\n",
					len(f.Networks), mPath, skipped)
			}
			if *doANML {
				doc := &anmlpkg.Document{}
				for i, nfa := range nfas {
					doc.Networks = append(doc.Networks, anmlpkg.FromNFA(sources[i], nfa))
				}
				aPath := filepath.Join(*out, base+".anml")
				if err := writeTo(aPath, func(w *os.File) error { return anmlpkg.Write(w, doc) }); err != nil {
					fatal(err)
				}
				fmt.Printf("  ANML: %d networks -> %s (%d skipped over capacity)\n",
					len(doc.Networks), aPath, skipped)
			}
		}
	}
}

// compileNFAs builds the basic-NFA form of every pattern, skipping the
// ones whose unfolded form exceeds the capacity.
func compileNFAs(patterns []string) (nfas []*automata.NFA, sources []string, skipped int) {
	for _, p := range patterns {
		re, err := regexast.Parse(p)
		if err != nil {
			fatal(err)
		}
		nfa, err := automata.Glushkov(re, 0)
		if err != nil {
			skipped++
			continue
		}
		nfas = append(nfas, nfa)
		sources = append(sources, p)
	}
	return nfas, sources, skipped
}

func writeTo(path string, write func(*os.File) error) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapgen:", err)
	os.Exit(1)
}
