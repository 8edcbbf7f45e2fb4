package experiments

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
)

// Experiment names accepted by Run.
var Names = []string{"fig1", "fig10a", "fig10b", "table2", "table3", "fig11", "fig12", "fig13", "table4", "ablation", "characterize", "flows", "reconfig", "scan", "sfa"}

// Run dispatches one experiment by name.
func Run(name string, cfg Config) (*metrics.Table, error) {
	switch name {
	case "fig1":
		return Fig1(cfg)
	case "fig10a":
		return Fig10a(cfg)
	case "fig10b":
		return Fig10b(cfg)
	case "table2":
		return Table2(cfg)
	case "table3":
		return Table3(cfg)
	case "fig11":
		return Fig11(cfg)
	case "fig12":
		return Fig12(cfg)
	case "fig13":
		return Fig13(cfg)
	case "table4":
		return Table4(cfg)
	case "ablation":
		return Ablation(cfg)
	case "characterize":
		return Characterize(cfg)
	case "flows":
		return Flows(cfg)
	case "reconfig":
		return Reconfig(cfg)
	case "scan":
		return ScanBench(cfg)
	case "sfa":
		return SFABench(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
}

// Select resolves rapbench's -exp value to the experiments it runs, in
// order ("all" is every name; Run reports an unknown one). guarded says
// -guard was given: the guard compares the scan experiment's headline, so
// a run list without scan would exit 0 having compared nothing and is an
// error.
func Select(exp string, guarded bool) ([]string, error) {
	names := []string{exp}
	if exp == "all" {
		names = Names
	}
	if guarded && !slices.Contains(names, "scan") {
		return nil, fmt.Errorf("-guard compares the scan headline: -exp must be scan or all, not %q", exp)
	}
	return names, nil
}
