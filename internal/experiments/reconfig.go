package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/mapper"
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
		old, imgOld, err := deployImage(&core.Program{}, nil, d.Patterns)
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
			coldProg, coldImg, err := deployImage(&core.Program{}, nil, newPats)
			if err != nil {
				return nil, fmt.Errorf("%s churn %s: %w", name, ch.label, err)
			}
			if _, err := refmatch.FromResult(coldProg.Result, refmatch.Options{}); err != nil {
				return nil, err
			}
			if _, err := reconfig.Schedule(reconfig.Diff(imgOld, coldImg), coldImg); err != nil {
				return nil, err
			}
			cold := time.Since(coldStart)
			// The swap the fabric loads is Service.Update's: placed from the
			// deployed placement and built on the deployed image.
			next, imgNew, err := deployImage(old, imgOld, newPats)
			if err != nil {
				return nil, fmt.Errorf("%s churn %s: %w", name, ch.label, err)
			}
			delta := reconfig.Diff(imgOld, imgNew)
			full := reconfig.FullCost(imgNew)
			plan, err := reconfig.Schedule(delta, imgNew)
			if err != nil {
				return nil, err
			}
			inc := plan.Cost
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
			t.AddRow(name, ch.label, delta.SizeBytes(), imgNew.SizeBytes(),
				metrics.Ratio(float64(imgNew.SizeBytes()), float64(delta.SizeBytes())),
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

// deployImage compiles, places and builds patterns in place of prev, whose
// image is base, as Service.Update does: the compile takes what prev holds,
// the placement keeps prev's and the image is built on base. An empty prev
// and a nil base deploy cold.
func deployImage(prev *core.Program, base *bitstream.Image, patterns []string) (*core.Program, *bitstream.Image, error) {
	res, err := compile.Recompile(context.Background(), prev.Result, nil, patterns, compile.Options{})
	if err == nil && len(res.Errors) > 0 {
		err = res.Errors[0]
	}
	if err != nil {
		return nil, nil, err
	}
	p, _, err := mapper.Remap(prev.Placement, prev.Result, res, mapper.Options{})
	if err != nil {
		return nil, nil, err
	}
	img, err := bitstream.Rebuild(base, res, p)
	return &core.Program{Patterns: patterns, Result: res, Placement: p}, img, err
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
