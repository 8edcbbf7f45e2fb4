package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/reconfig"
	"repro/internal/refmatch"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Reconfig measures live reconfiguration against full redeployment: a
// deployed ruleset has a fraction of its rules replaced (churn), and the
// delta bitstream shipped by internal/reconfig is compared to reloading
// the whole target image — serialized bytes, reload cycles through the
// §3.3 configuration path, and the throughput of a stream that hot-swaps
// mid-flight (the scheduler stalls only the touched arrays' banks,
// whereas a full redeploy rewrites every array).
//
// The acceptance shape: for small churn the incremental path is orders
// of magnitude below a redeploy, converging toward it as churn grows.
//
// The last two columns price the software half of the same swap:
// service.Update, which compiles and lowers only the patterns the served
// generation does not hold, against the steps of a cold compile of the
// same list (front-end, lowering, map, bitstream, diff).
func Reconfig(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	t := &metrics.Table{
		Name: "Live reconfiguration: incremental delta vs full redeploy",
		Header: []string{"Dataset", "Churn", "Delta B", "Full B", "Full/Delta",
			"Reload cyc", "Full cyc", "Stall µs", "Idle arrays", "Swap Gch/s", "Redeploy Gch/s",
			"Update ms", "Cold ms"},
	}
	for _, name := range []string{"Snort", "ClamAV"} {
		d, input, err := cfg.dataset(name)
		if err != nil {
			return nil, err
		}
		// A disjoint generation of the same dataset supplies replacement
		// rules, so churned patterns are realistic for the workload.
		alt, err := workload.Generate(name, cfg.Scale, cfg.Seed+999)
		if err != nil {
			return nil, err
		}
		old, imgOld, err := deployImage(d.Patterns)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, ch := range churnLevels(len(d.Patterns)) {
			newPats := append([]string(nil), d.Patterns...)
			for i := 0; i < ch.rules && i < len(alt.Patterns); i++ {
				newPats[i] = alt.Patterns[i]
			}
			runtime.GC() // both timings are one sample: start each from a collected heap
			coldStart := time.Now()
			next, imgNew, err := deployImage(newPats)
			if err != nil {
				return nil, fmt.Errorf("%s churn %s: %w", name, ch.label, err)
			}
			if _, err := refmatch.FromResult(next.Result, refmatch.Options{}); err != nil {
				return nil, err
			}
			delta := reconfig.Diff(imgOld, imgNew)
			data, err := delta.MarshalBinary()
			if err != nil {
				return nil, err
			}
			full := reconfig.FullCost(imgNew)
			plan, err := reconfig.Schedule(delta, imgNew)
			if err != nil {
				return nil, err
			}
			inc := plan.Cost
			cold := time.Since(coldStart)
			update, err := updateLatency(d.Patterns, newPats)
			if err != nil {
				return nil, fmt.Errorf("%s churn %s: %w", name, ch.label, err)
			}
			// Hot-swap mid-stream: incremental stalls for the scheduler's
			// window, a redeploy stalls for the full-image reload.
			swap, err := sim.SimulateRAPReconfig(old.Result, old.Placement, next.Result, next.Placement, input,
				sim.ReconfigEvent{At: len(input) / 2, StallCycles: plan.StallCycles, EnergyPJ: inc.EnergyPJ})
			if err != nil {
				return nil, err
			}
			redeploy, err := sim.SimulateRAPReconfig(old.Result, old.Placement, next.Result, next.Placement, input,
				sim.ReconfigEvent{At: len(input) / 2, StallCycles: full.ReloadCycles, EnergyPJ: full.EnergyPJ})
			if err != nil {
				return nil, err
			}
			t.AddRow(name, ch.label, len(data), imgNew.SizeBytes(),
				metrics.Ratio(float64(imgNew.SizeBytes()), float64(len(data))),
				inc.ReloadCycles, full.ReloadCycles, plan.LatencyUS(),
				fmt.Sprintf("%d/%d", plan.UntouchedArrays, len(imgNew.Arrays)),
				swap.ThroughputGchS(), redeploy.ThroughputGchS(),
				float64(update.Microseconds())/1e3, float64(cold.Microseconds())/1e3)
		}
	}
	if err := cfg.saveTable(t, "reconfig.csv"); err != nil {
		return nil, err
	}
	return t, nil
}

// updateLatency times service.Update from the served ruleset old to next.
// One round trip comes first, so that the timed swap finds — like every
// swap of a program after its first — the displaced image already built.
func updateLatency(old, next []string) (time.Duration, error) {
	svc := service.New(service.Config{})
	defer svc.Close()
	ctx := context.Background()
	prog, _, err := svc.Compile(ctx, old, service.CompileOptions{})
	if err != nil {
		return 0, err
	}
	for _, warm := range [][]string{next, old} {
		if _, err := svc.Update(ctx, prog.ID, warm, service.CompileOptions{}); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	start := time.Now()
	_, err = svc.Update(ctx, prog.ID, next, service.CompileOptions{})
	return time.Since(start), err
}

// deployImage runs the deployment pipeline for one pattern set.
func deployImage(patterns []string) (*core.Program, *bitstream.Image, error) {
	prog, err := core.NewDefault().Compile(patterns)
	if err != nil {
		return nil, nil, err
	}
	img, err := bitstream.Build(prog.Result, prog.Placement)
	return prog, img, err
}

type churnLevel struct {
	label string
	rules int
}

// churnLevels returns the churn ladder for an n-rule set: a single rule,
// then 5%, 10%, 20% and 50%, deduplicated for small sets.
func churnLevels(n int) []churnLevel {
	levels := []churnLevel{{"1 rule", 1}}
	for _, pct := range []int{5, 10, 20, 50} {
		rules := n * pct / 100
		if rules <= levels[len(levels)-1].rules {
			continue
		}
		levels = append(levels, churnLevel{fmt.Sprintf("%d%%", pct), rules})
	}
	return levels
}
