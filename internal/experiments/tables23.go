package experiments

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table2 reproduces Table 2: for the regexes compiled to NBVA in each
// benchmark (no Prosite), compare the NBVA mode of RAP (baseline) against
// RAP's NFA mode, CAMA, BVAP and CA on energy (µJ), area (mm²) and
// throughput (Gch/s), over cfg.InputLen input characters.
func Table2(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	t := &metrics.Table{
		Name: "Table 2: NBVA mode of RAP vs NFA mode, CAMA, BVAP, CA",
		Header: []string{"Dataset",
			"E NBVA", "E NFA", "E CAMA", "E BVAP", "E CA",
			"A NBVA", "A NFA", "A CAMA", "A BVAP", "A CA",
			"T NBVA", "T NFA", "T CAMA", "T BVAP", "T CA"},
	}
	eng := core.NewDefault()
	var norm normAccum
	results, err := parMap(cfg.Parallel, workload.NBVANames, func(name string) ([]*sim.Report, error) {
		d, input, err := cfg.dataset(name)
		if err != nil {
			return nil, err
		}
		subset, err := subsetByMode(d.Patterns, compile.ModeNBVA)
		if err != nil || len(subset) == 0 {
			return nil, err
		}
		depth, _, err := eng.ChooseDepth(subset, input)
		if err != nil {
			return nil, err
		}
		reps, err := compareArchs(subset, input, core.Config{Depth: depth})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return reps, nil
	})
	if err != nil {
		return nil, err
	}
	for i, reps := range results {
		if reps == nil {
			continue
		}
		addCompareRow(t, workload.NBVANames[i], reps)
		norm.add(reps)
	}
	norm.addAverageRow(t)
	if err := cfg.saveTable(t, "table_2.csv"); err != nil {
		return nil, err
	}
	return t, nil
}

// Table3 reproduces Table 3: the same comparison for the regexes compiled
// to LNFA in each benchmark, with RAP's LNFA mode as the baseline.
func Table3(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	t := &metrics.Table{
		Name: "Table 3: LNFA mode of RAP vs NFA mode, CAMA, BVAP, CA",
		Header: []string{"Dataset",
			"E LNFA", "E NFA", "E CAMA", "E BVAP", "E CA",
			"A LNFA", "A NFA", "A CAMA", "A BVAP", "A CA",
			"T LNFA", "T NFA", "T CAMA", "T BVAP", "T CA"},
	}
	eng := core.NewDefault()
	var norm normAccum
	results, err := parMap(cfg.Parallel, workload.Names, func(name string) ([]*sim.Report, error) {
		d, input, err := cfg.dataset(name)
		if err != nil {
			return nil, err
		}
		subset, err := subsetByMode(d.Patterns, compile.ModeLNFA)
		if err != nil || len(subset) == 0 {
			return nil, err
		}
		bin, _, err := eng.ChooseBinSize(subset, input)
		if err != nil {
			return nil, err
		}
		reps, err := compareArchs(subset, input, core.Config{BinSize: bin})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return reps, nil
	})
	if err != nil {
		return nil, err
	}
	for i, reps := range results {
		if reps == nil {
			continue
		}
		addCompareRow(t, workload.Names[i], reps)
		norm.add(reps)
	}
	norm.addAverageRow(t)
	if err := cfg.saveTable(t, "table_3.csv"); err != nil {
		return nil, err
	}
	return t, nil
}

// compareArchs runs one pattern subset on the five §5 architectures in
// Table 2/3 column order and holds them to the §5.2 consistency check:
// every simulator must report the same match count.
func compareArchs(patterns []string, input []byte, cfg core.Config) ([]*sim.Report, error) {
	reps, err := core.New(cfg).Compare(patterns, input, core.Archs...)
	if err != nil {
		return nil, err
	}
	for _, r := range reps[1:] {
		if r.Matches != reps[0].Matches {
			return nil, fmt.Errorf("match disagreement: RAP=%d %s=%d", reps[0].Matches, r.Arch, r.Matches)
		}
	}
	return reps, nil
}

func addCompareRow(t *metrics.Table, name string, reps []*sim.Report) {
	cells := []interface{}{name}
	for _, r := range reps {
		cells = append(cells, r.EnergyUJ())
	}
	for _, r := range reps {
		cells = append(cells, r.Area.TotalMM2())
	}
	for _, r := range reps {
		cells = append(cells, r.ThroughputGchS())
	}
	t.AddRow(cells...)
}

// normAccum accumulates per-dataset ratios for the "Average (normalized)"
// row of Tables 2–3.
type normAccum struct {
	n      int
	energy [5]float64
	area   [5]float64
	tput   [5]float64
}

func (a *normAccum) add(reps []*sim.Report) {
	base := reps[0]
	a.n++
	for i, r := range reps {
		a.energy[i] += r.EnergyUJ() / base.EnergyUJ()
		a.area[i] += r.Area.TotalMM2() / base.Area.TotalMM2()
		a.tput[i] += r.ThroughputGchS() / base.ThroughputGchS()
	}
}

func (a *normAccum) addAverageRow(t *metrics.Table) {
	if a.n == 0 {
		return
	}
	cells := []interface{}{"Average (norm)"}
	for _, v := range a.energy {
		cells = append(cells, fmt.Sprintf("%.1fx", v/float64(a.n)))
	}
	for _, v := range a.area {
		cells = append(cells, fmt.Sprintf("%.1fx", v/float64(a.n)))
	}
	for _, v := range a.tput {
		cells = append(cells, fmt.Sprintf("%.1fx", v/float64(a.n)))
	}
	t.AddRow(cells...)
}
