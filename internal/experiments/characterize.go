package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/refmatch"
	"repro/internal/regexast"
	"repro/internal/workload"
)

// Characterize produces the workload-characterization table (the
// ANMLZoo-style companion to Fig 1): per benchmark, structural statistics
// of the pattern population — average states, bounded-repetition counts
// and bounds, class sizes, and the capped DFA-size estimate that
// motivates NFA-based execution (§2.1). The last three columns are the
// dataset's kernel reach: which forks of the software scan path a served
// program of these patterns runs on (see kernelReach), the evidence the
// scan-path fork audit in EXPERIMENTS.md keeps or deletes a fork on.
func Characterize(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	t := &metrics.Table{
		Name: "Workload characterization",
		Header: []string{"Dataset", "Patterns", "Avg states", "Avg unfolded",
			"BoundedReps/regex", "Max bound", "Avg class size", "Avg DFA (capped)",
			"Mode NFA/NBVA/LNFA %", "Utilization %",
			"Windowed kernel", "Prefilter tier", "word64/step/dfa-table"},
	}
	const dfaCap = 4096
	for _, name := range workload.Names {
		d, _, err := cfg.dataset(name)
		if err != nil {
			return nil, err
		}
		prog, err := core.NewDefault().Compile(d.Patterns)
		if err != nil {
			return nil, err
		}
		var states, unfolded, bounded, maxBound int
		var classSize float64
		var dfaSum, dfaCount int
		for _, p := range d.Patterns {
			re, err := regexast.Parse(p)
			if err != nil {
				return nil, err
			}
			s := regexast.Analyze(re.Root)
			states += s.States
			unfolded += s.UnfoldedStates
			bounded += s.BoundedRepetitions
			if s.MaxBound > maxBound {
				maxBound = s.MaxBound
			}
			classSize += regexast.AverageClassSize(re.Root)
			// DFA estimate on a sample (cap keeps this cheap).
			if dfaCount < 25 {
				if nfa, err := automata.Glushkov(re, 8192); err == nil {
					states := dfaCap // a construction past the cap counts as the cap
					if dfa, err := automata.BuildDFA(dfaCap, nfa); err == nil {
						states = dfa.NumStates()
					}
					dfaSum += states
					dfaCount++
				}
			}
		}
		n := float64(len(d.Patterns))
		shares := prog.ModeShares()
		avgDFA := 0.0
		if dfaCount > 0 {
			avgDFA = float64(dfaSum) / float64(dfaCount)
		}
		linear, tier, engines, err := kernelReach(d.Patterns)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, len(d.Patterns),
			float64(states)/n, float64(unfolded)/n,
			float64(bounded)/n, maxBound, classSize/n, avgDFA,
			sharesCell(shares), 100*prog.Placement.Utilization(), linear, tier, engines)
	}
	if err := cfg.saveTable(t, "characterize.csv"); err != nil {
		return nil, err
	}
	return t, nil
}

func sharesCell(s map[compile.Mode]float64) string {
	return fmt.Sprintf("%.0f/%.0f/%.0f",
		100*s[compile.ModeNFA], 100*s[compile.ModeNBVA], 100*s[compile.ModeLNFA])
}

// kernelReach lowers patterns the way a served program is (refmatch
// defaults) and reads off Matcher.Kernels which scan loops they land on:
// the kernel(s) of the linear (LNFA-mode) patterns, "(always-on)" marking
// one that runs outside the prefilter's windows; the prefilter tier; and
// the pattern counts on the NBVA word kernel, the NBVA per-byte fallback
// and the DFA tables.
func kernelReach(patterns []string) (linear, tier, engines string, err error) {
	opts := refmatch.Options{}
	res, err := compile.CompileContext(context.Background(), patterns, opts.FrontEnd())
	if err != nil {
		return "", "", "", err
	}
	m, err := refmatch.FromResult(res, opts)
	if err != nil {
		return "", "", "", err
	}
	count := map[string]int{}
	lin := map[string]bool{}
	for i, k := range m.Kernels() {
		name, _, _ := strings.Cut(k, " ")
		count[name]++
		if res.Regexes[i].Mode == compile.ModeLNFA {
			if !strings.Contains(k, " behind ") {
				name += " (always-on)"
			}
			lin[name] = true
		}
	}
	names := make([]string, 0, len(lin))
	for name := range lin {
		names = append(names, name)
	}
	sort.Strings(names)
	if linear = strings.Join(names, " + "); linear == "" {
		linear = "-"
	}
	if tier = m.PrefilterTier(); tier == "" {
		tier = "-"
	}
	return linear, tier, fmt.Sprintf("%d/%d/%d", count["word64"], count["step"], count["dfa-table"]), nil
}
