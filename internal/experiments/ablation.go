package experiments

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/hwmodel"
	"repro/internal/mapper"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Ablation quantifies the design choices DESIGN.md calls out, beyond the
// paper's own DSE figures:
//
//  1. Buffering (§3.3): bank throughput for NBVA workloads under
//     lockstep broadcast (no buffering), the real 128+8-entry two-level
//     buffering window, and unlimited buffering.
//  2. Reconfigurability: full RAP vs RAP without the LNFA mode (the
//     BVAP-style program) vs RAP with everything unfolded to NFA —
//     isolating each mode's contribution to energy and area.
//  3. Unfolding threshold (§4.1): how the NBVA/NFA frontier moves.
//  4. Prefix sharing: the VASim-style trie merge of NFA-mode regexes
//     (compile.ShareNFAPrefixes) — STE count, energy and area deltas.
func Ablation(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	t := &metrics.Table{
		Name:   "Ablations: buffering, mode removal, unfolding threshold",
		Header: []string{"Ablation", "Dataset", "Variant", "Value", "Unit"},
	}
	if err := ablateBuffering(&cfg, t); err != nil {
		return nil, err
	}
	if err := ablateModes(&cfg, t); err != nil {
		return nil, err
	}
	if err := ablateThreshold(&cfg, t); err != nil {
		return nil, err
	}
	if err := ablatePrefixSharing(&cfg, t); err != nil {
		return nil, err
	}
	if err := ablatePacking(&cfg, t); err != nil {
		return nil, err
	}
	if err := cfg.saveTable(t, "ablation.csv"); err != nil {
		return nil, err
	}
	return t, nil
}

// ablateBuffering compares the three bank-level stall models on the
// NBVA-heaviest benchmarks.
func ablateBuffering(cfg *Config, t *metrics.Table) error {
	eng := core.NewDefault()
	for _, name := range []string{"Snort", "Yara", "ClamAV"} {
		d, input, err := cfg.dataset(name)
		if err != nil {
			return err
		}
		// Stalls only interact across arrays; widen the rule set with two
		// extra seed variants so the mapper needs several arrays even at
		// small test scales.
		for _, extraSeed := range []int64{cfg.Seed + 1, cfg.Seed + 2} {
			extra, err := workload.Generate(name, cfg.Scale, extraSeed)
			if err != nil {
				return err
			}
			d.Patterns = append(d.Patterns, extra.Patterns...)
		}
		subset, err := subsetByMode(d.Patterns, compile.ModeNBVA)
		if err != nil {
			return err
		}
		if len(subset) == 0 {
			continue
		}
		depth, _, err := eng.ChooseDepth(subset, input)
		if err != nil {
			return err
		}
		prog, err := core.New(core.Config{Depth: depth}).Compile(subset)
		if err != nil {
			return err
		}
		traces, err := sim.NBVAStallTraces(prog.Result, prog.Placement, input)
		if err != nil {
			return err
		}
		chars := len(input)
		tput := func(cycles int64) float64 {
			return float64(chars) / float64(cycles) * hwmodel.ClockRAPGHz
		}
		t.AddRow("buffering", name, "lockstep (none)", tput(stream.LockstepCycles(traces, chars)), "Gch/s")
		t.AddRow("buffering", name, "two-level (128+8)", tput(stream.WindowedCycles(traces, chars, stream.DefaultWindow)), "Gch/s")
		t.AddRow("buffering", name, "unlimited", tput(stream.IndependentCycles(traces, chars)), "Gch/s")
	}
	return nil
}

// ablateModes removes RAP's modes one at a time on a mixed benchmark.
func ablateModes(cfg *Config, t *metrics.Table) error {
	for _, name := range []string{"Snort", "SpamAssassin"} {
		d, input, err := cfg.dataset(name)
		if err != nil {
			return err
		}
		variants := []struct {
			label  string
			policy compile.ModePolicy
		}{
			{"full RAP (3 modes)", compile.PolicyDefault},
			{"no LNFA mode", compile.AllowNBVA},
			{"NFA only", compile.ForceNFA},
		}
		for _, v := range variants {
			eng := core.New(core.Config{Compile: compile.Options{ModePolicy: v.policy}})
			prog, err := eng.Compile(d.Patterns)
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, v.label, err)
			}
			rep, err := eng.Run(prog, input)
			if err != nil {
				return err
			}
			t.AddRow("mode-removal", name, v.label+" energy", rep.EnergyUJ(), "µJ")
			t.AddRow("mode-removal", name, v.label+" area", rep.Area.TotalMM2(), "mm²")
		}
	}
	return nil
}

// ablatePrefixSharing compares NFA-heavy benchmarks with and without the
// shared-prefix trie merge.
func ablatePrefixSharing(cfg *Config, t *metrics.Table) error {
	for _, name := range []string{"RegexLib", "Snort"} {
		d, input, err := cfg.dataset(name)
		if err != nil {
			return err
		}
		for _, share := range []bool{false, true} {
			eng := core.New(core.Config{SharePrefixes: share})
			prog, err := eng.Compile(d.Patterns)
			if err != nil {
				return err
			}
			rep, err := eng.Run(prog, input)
			if err != nil {
				return err
			}
			label := "no sharing"
			if share {
				label = "prefix sharing"
			}
			t.AddRow("prefix-sharing", name, label+" STEs", prog.STEs(), "STEs")
			t.AddRow("prefix-sharing", name, label+" energy", rep.EnergyUJ(), "µJ")
			t.AddRow("prefix-sharing", name, label+" area", rep.Area.TotalMM2(), "mm²")
		}
	}
	return nil
}

// ablatePacking compares the greedy placement orders (first-fit as given
// vs first-fit decreasing) on tile usage.
func ablatePacking(cfg *Config, t *metrics.Table) error {
	for _, name := range []string{"ClamAV", "Suricata"} {
		d, _, err := cfg.dataset(name)
		if err != nil {
			return err
		}
		res := compile.Compile(d.Patterns, compile.Options{})
		if len(res.Errors) != 0 {
			return res.Errors[0]
		}
		for _, packing := range []mapper.Packing{mapper.PackAsGiven, mapper.PackDecreasing} {
			p, err := mapper.Map(res, mapper.Options{Packing: packing})
			if err != nil {
				return err
			}
			label := "first-fit"
			if packing == mapper.PackDecreasing {
				label = "first-fit decreasing"
			}
			t.AddRow("packing", name, label+" tiles", p.TilesUsed(), "tiles")
			t.AddRow("packing", name, label+" utilization", 100*p.Utilization(), "%")
		}
	}
	return nil
}

// ablateThreshold sweeps the §4.1 unfolding threshold on a bounded-
// repetition benchmark and reports the NBVA share plus hardware cost.
func ablateThreshold(cfg *Config, t *metrics.Table) error {
	d, err := workload.Generate("Yara", cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	input := d.Input(cfg.InputLen, cfg.Seed+300)
	for _, th := range []int{4, 8, 16, 32, 64} {
		eng := core.New(core.Config{Compile: compile.Options{UnfoldThreshold: th}})
		prog, err := eng.Compile(d.Patterns)
		if err != nil {
			return err
		}
		rep, err := eng.Run(prog, input)
		if err != nil {
			return err
		}
		share := prog.ModeShares()[compile.ModeNBVA]
		t.AddRow("unfold-threshold", "Yara", fmt.Sprintf("threshold %d NBVA share", th), 100*share, "%")
		t.AddRow("unfold-threshold", "Yara", fmt.Sprintf("threshold %d energy", th), rep.EnergyUJ(), "µJ")
	}
	return nil
}
