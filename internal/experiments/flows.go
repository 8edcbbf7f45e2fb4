package experiments

import (
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
)

// Flows quantifies the cost of the paper's "single flow" assumption (§1
// evaluates a 10 Gb/s network *with a single flow*): when an automata
// processor multiplexes several network flows, every context switch must
// save and restore the per-flow automaton state — the active vectors and,
// expensively, every bit vector resident in the CAM. This experiment
// models round-robin multiplexing with a fixed quantum: per switch it
// charges
//
//   - 2 cycles + 2 accesses per used tile to swap the active vector, and
//   - depth read + write cycles per BV column to swap bit-vector state
//     (the same path as the bit-vector-processing phase),
//
// and reports the effective throughput as the flow count grows. Matching
// behaviour is unaffected: flows are independent streams, so each is
// simulated separately and the overhead is additive.
func Flows(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	t := &metrics.Table{
		Name: "Flow multiplexing: context-switch cost vs flow count (quantum 1024)",
		Header: []string{"Dataset", "Flows", "Thpt (Gch/s)", "Thpt vs 1 flow",
			"Switch energy share %"},
	}
	const quantum = 1024
	for _, name := range []string{"Snort", "ClamAV"} {
		d, _, err := cfg.dataset(name)
		if err != nil {
			return nil, err
		}
		eng := core.NewDefault()
		prog, err := eng.Compile(d.Patterns)
		if err != nil {
			return nil, err
		}
		swCycles, swEnergyPJ := contextSwitchCost(prog.Placement)
		var base float64
		for _, flows := range []int{1, 2, 4, 8} {
			perFlow := cfg.InputLen / flows
			if perFlow == 0 {
				continue
			}
			var totalCycles int64
			var totalEnergy float64
			for f := 0; f < flows; f++ {
				input := d.Input(perFlow, cfg.Seed+int64(400+f))
				rep, err := eng.Run(prog, input)
				if err != nil {
					return nil, err
				}
				totalCycles += rep.Cycles
				totalEnergy += rep.Energy.TotalPJ()
			}
			switches := int64(0)
			if flows > 1 {
				// Round-robin: one switch per quantum per flow.
				switches = int64(cfg.InputLen/quantum) + int64(flows)
			}
			totalCycles += switches * swCycles
			switchEnergy := float64(switches) * swEnergyPJ
			totalEnergy += switchEnergy
			tput := float64(cfg.InputLen) / float64(totalCycles) * hwmodel.ClockRAPGHz
			if flows == 1 {
				base = tput
			}
			t.AddRow(name, flows, tput, metrics.Ratio(tput, base),
				100*switchEnergy/totalEnergy)
		}
	}
	if err := cfg.saveTable(t, "flows.csv"); err != nil {
		return nil, err
	}
	return t, nil
}

// contextSwitchCost returns the per-switch stall cycles and energy for a
// placement: active-vector swap on every used tile plus bit-vector swap
// on every BV column.
func contextSwitchCost(p *arch.Placement) (int64, float64) {
	cycles := int64(2) // active vector save + restore, pipelined across tiles
	energy := 0.0
	for ai := range p.Arrays {
		a := &p.Arrays[ai]
		for ti := range a.Tiles {
			tp := &a.Tiles[ti]
			if tp.Columns() == 0 && tp.LNFAUsed() == 0 {
				continue
			}
			// Active vector swap: one read + one write of the tile's
			// registers through the local switch path.
			energy += 2 * hwmodel.SRAM128.AccessEnergyPJ(0.5)
			if tp.BVColumns > 0 && a.Depth > 0 {
				// Bit-vector state swap: depth words out + depth words in
				// across the BV columns.
				frac := float64(tp.BVColumns) / float64(arch.TileSTEs)
				energy += float64(2*a.Depth) * (hwmodel.CAM.AccessEnergyPJ(1) * frac)
				c := int64(2 * a.Depth)
				if c > cycles {
					cycles = c
				}
			}
		}
	}
	return cycles, energy
}
