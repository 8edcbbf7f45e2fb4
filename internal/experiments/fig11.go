package experiments

import (
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fig11 reproduces Figure 11: across the full benchmark suite, the share
// of STEs, energy and area attributable to each automata mode. Because
// RAP arrays are homogeneous per mode, per-mode attribution simulates
// each mode's subset independently (arrays do not interact).
func Fig11(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	t := &metrics.Table{
		Name: "Fig 11: per-mode share of STEs, energy and area (all benchmarks)",
		Header: []string{"Mode", "STEs", "STE %", "Energy (µJ)", "Energy %",
			"Area (mm²)", "Area %"},
	}
	eng := core.NewDefault()
	type tot struct {
		ste    int
		energy float64
		area   float64
	}
	totals := map[compile.Mode]*tot{
		compile.ModeNFA:  {},
		compile.ModeNBVA: {},
		compile.ModeLNFA: {},
	}
	for _, name := range workload.Names {
		d, input, err := cfg.dataset(name)
		if err != nil {
			return nil, err
		}
		prog, err := eng.Compile(d.Patterns)
		if err != nil {
			return nil, err
		}
		for _, mode := range []compile.Mode{compile.ModeNFA, compile.ModeNBVA, compile.ModeLNFA} {
			subset := prog.Result.Sources(mode)
			if len(subset) == 0 {
				continue
			}
			depth := 8
			if mode == compile.ModeNBVA {
				if depth, _, err = eng.ChooseDepth(subset, input); err != nil {
					return nil, err
				}
			}
			sub := core.New(core.Config{Depth: depth})
			subProg, err := sub.Compile(subset)
			if err != nil {
				return nil, err
			}
			rep, err := sub.Run(subProg, input)
			if err != nil {
				return nil, err
			}
			totals[mode].ste += subProg.STEs()
			totals[mode].energy += rep.EnergyUJ()
			totals[mode].area += rep.Area.TotalMM2()
		}
	}
	var steSum int
	var eSum, aSum float64
	for _, v := range totals {
		steSum += v.ste
		eSum += v.energy
		aSum += v.area
	}
	for _, mode := range []compile.Mode{compile.ModeNFA, compile.ModeNBVA, compile.ModeLNFA} {
		v := totals[mode]
		t.AddRow(mode.String(), v.ste, pct(float64(v.ste), float64(steSum)),
			v.energy, pct(v.energy, eSum), v.area, pct(v.area, aSum))
	}
	if err := cfg.saveTable(t, "fig11.csv"); err != nil {
		return nil, err
	}
	return t, nil
}

func pct(x, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * x / total
}
