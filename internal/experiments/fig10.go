package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fig10a reproduces Figure 10(a): the NBVA design space exploration.
// For every benchmark with NBVA-compiled regexes it sweeps the BV depth
// over {4, 8, 16, 32} and reports energy, area and throughput normalized
// to depth 4, marking the chosen depth (§5.3 policy).
func Fig10a(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	t := &metrics.Table{
		Name: "Fig 10(a): NBVA DSE, normalized to depth=4",
		Header: []string{"Dataset", "Depth", "Energy (norm)", "Area (norm)",
			"Throughput (norm)", "Chosen"},
	}
	eng := core.NewDefault()
	for _, name := range workload.NBVANames {
		d, input, err := cfg.dataset(name)
		if err != nil {
			return nil, err
		}
		depth, points, err := eng.ChooseDepth(d.Patterns, input)
		if err != nil {
			return nil, err
		}
		if len(points) == 0 {
			continue
		}
		base := points[0] // depth 4
		for _, p := range points {
			chosen := ""
			if p.Param == depth {
				chosen = "*"
			}
			t.AddRow(name, p.Param,
				p.EnergyUJ/base.EnergyUJ,
				p.AreaMM2/base.AreaMM2,
				p.ThroughputGchS/base.ThroughputGchS,
				chosen)
		}
	}
	if err := cfg.saveTable(t, "fig10a.csv"); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig10b reproduces Figure 10(b): the LNFA binning DSE. For every
// benchmark it sweeps the bin size over {1..32} and reports energy and
// area normalized to bin size 1.
func Fig10b(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	t := &metrics.Table{
		Name:   "Fig 10(b): LNFA DSE, normalized to bin=1",
		Header: []string{"Dataset", "Bin", "Energy (norm)", "Area (norm)", "Chosen"},
	}
	eng := core.NewDefault()
	for _, name := range workload.Names {
		d, input, err := cfg.dataset(name)
		if err != nil {
			return nil, err
		}
		bin, points, err := eng.ChooseBinSize(d.Patterns, input)
		if err != nil {
			return nil, err
		}
		if len(points) == 0 {
			continue
		}
		base := points[0] // bin 1
		for _, p := range points {
			chosen := ""
			if p.Param == bin {
				chosen = "*"
			}
			t.AddRow(name, p.Param, p.EnergyUJ/base.EnergyUJ, p.AreaMM2/base.AreaMM2, chosen)
		}
	}
	if err := cfg.saveTable(t, "fig10b.csv"); err != nil {
		return nil, err
	}
	return t, nil
}
