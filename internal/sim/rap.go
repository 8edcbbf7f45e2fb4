package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/hwmodel"
	"repro/internal/stream"
)

// ringHopMM is the wire length of one LNFA ring hop between adjacent
// tiles (§3.2: "the ring connects adjacent tiles with global wires over a
// short distance").
const ringHopMM = 0.1

// SimulateRAP executes a RAP placement over the input stream and returns
// the full report: energy from per-cycle activity, area from the
// placement, throughput from stall-aware cycle counts.
func SimulateRAP(res *compile.Result, p *arch.Placement, input []byte) (*Report, error) {
	rep := &Report{
		Arch: "RAP", Chars: int64(len(input)), ClockGHz: hwmodel.ClockRAPGHz,
		PerRegex: map[int]int64{},
	}
	// NBVA arrays within one bank share the input stream through the
	// two-level buffering of §3.3; their joint cycle count comes from the
	// windowed model rather than each array alone.
	var traces []stream.StallTrace
	err := chargeArrays(rep, res, p, input, func(plan *arch.ArrayPlan, en *EnergyBreakdown) (func(int, *activity), error) {
		switch plan.Mode {
		case arch.ModeNFA:
			return nfaCharge(plan, en, hwmodel.CAM.AccessEnergyPJ(1), hwmodel.LocalController.AccessEnergyPJ(1)), nil
		case arch.ModeNBVA:
			traces = append(traces, make(stream.StallTrace, len(input)))
			return rapNBVACharge(rep, plan, en, traces[len(traces)-1]), nil
		case arch.ModeLNFA:
			return rapLNFACharge(rep, plan, en), nil
		}
		return nil, fmt.Errorf("sim: unknown mode %v", plan.Mode)
	})
	if err != nil {
		return nil, err
	}
	// NFA and LNFA arrays never stall: the input length bounds them.
	rep.Cycles = int64(len(input))
	for i := 0; i < len(traces); i += arch.ArraysPerBank {
		bank := traces[i:min(i+arch.ArraysPerBank, len(traces))]
		rep.Cycles = max(rep.Cycles, stream.WindowedCycles(bank, len(input), stream.DefaultWindow))
	}
	rep.Area = rapArea(p)
	// Output path (§3.3): match reports drain through the 64-entry Bank
	// Output Buffer; each fill raises a host interrupt. With the match
	// counts known, the interrupt count is the report total over the
	// buffer capacity per bank (the arbiter serializes arrays onto one
	// buffer per bank).
	banks := int64(p.Banks())
	if banks > 0 && rep.Matches > 0 {
		perBank := (rep.Matches + banks - 1) / banks
		rep.IOInterrupts = banks * ((perBank + arch.BankOutputBufferEntries - 1) / arch.BankOutputBufferEntries)
	}
	finishReport(rep, "RAP", p)
	return rep, nil
}

// chargeArrays steps every array of p over the input. It counts the
// match reports into rep (and into rep.PerRegex when that is set) and
// adds each array's energy, charged cycle by cycle by the visitor charge
// returns for it, to rep.Energy once the array has run.
func chargeArrays(rep *Report, res *compile.Result, p *arch.Placement, input []byte,
	charge func(plan *arch.ArrayPlan, en *EnergyBreakdown) (func(k int, a *activity), error)) error {
	for ai := range p.Arrays {
		plan := &p.Arrays[ai]
		var en EnergyBreakdown
		visit, err := charge(plan, &en)
		if err != nil {
			return err
		}
		err = runArray(res, plan, input, func(k int, a *activity) {
			rep.Matches += int64(len(a.fired))
			if rep.PerRegex != nil {
				for _, ri := range a.fired {
					rep.PerRegex[ri]++
				}
			}
			visit(k, a)
		})
		if err != nil {
			return err
		}
		rep.Energy.Add(en)
	}
	return nil
}

// finishReport adds leakage and I/O energy, which depend on total time.
func finishReport(rep *Report, archName string, p *arch.Placement) {
	rep.Energy.Leakage = leakagePowerW(archName, p) * rep.TimeSeconds() * 1e12
	rep.Energy.Wire += float64(rep.Chars) * float64(p.Banks()) * ioEnergyPerCharPJ
}

// nfaCharge charges one NFA-mode array cycle: a state-matching search
// on every used tile, costing camPJ for a full tile and scaled by its
// columns, a crossbar transition driven by the tile's active states,
// localPJ of local controller per used tile (RAP's reconfigurability
// overhead over CAMA, §5.4; zero on the baselines), the global
// controller, and the global switch and wires for active states with
// cross-tile successors.
func nfaCharge(plan *arch.ArrayPlan, en *EnergyBreakdown, camPJ, localPJ float64) func(int, *activity) {
	usedTiles := usedTileIndices(plan)
	colsFrac := make([]float64, len(plan.Tiles))
	for _, t := range usedTiles {
		colsFrac[t] = float64(plan.Tiles[t].Columns()) / float64(arch.TileSTEs)
	}
	crossEdges := plan.CrossTileEdges > 0
	return func(_ int, a *activity) {
		for _, t := range usedTiles {
			en.CAM += camPJ * colsFrac[t]
			en.LocalSwitch += hwmodel.SRAM128.AccessEnergyPJ(float64(a.tileActive[t]) / float64(arch.TileSTEs))
			en.Controller += localPJ
		}
		en.Controller += hwmodel.GlobalController.AccessEnergyPJ(1)
		if crossEdges {
			en.GlobalSwitch += hwmodel.SRAM256.AccessEnergyPJ(float64(a.crossActive) / 256)
			en.Wire += float64(a.crossActive) * hwmodel.GlobalWireMMPerHop * hwmodel.GlobalWire.AccessEnergyPJ(1)
		}
	}
}

// rapNBVACharge charges one NBVA-mode array cycle: state matching
// activates only the CC columns; a triggered bit-vector-processing phase
// stalls the array for depth cycles, recorded in trace for the bank-level
// buffering model, and charges CAM read/write plus switch routing on the
// tiles with active BVs (§3.1).
func rapNBVACharge(rep *Report, plan *arch.ArrayPlan, en *EnergyBreakdown, trace stream.StallTrace) func(int, *activity) {
	usedTiles := usedTileIndices(plan)
	ccFrac := make([]float64, len(plan.Tiles))
	for _, t := range usedTiles {
		tp := &plan.Tiles[t]
		ccFrac[t] = float64(tp.CCColumns+tp.InitColumns) / float64(arch.TileSTEs)
	}
	depth := plan.Depth
	return func(k int, a *activity) {
		for _, t := range usedTiles {
			en.CAM += hwmodel.CAM.AccessEnergyPJ(1) * ccFrac[t]
			en.LocalSwitch += hwmodel.SRAM128.AccessEnergyPJ(float64(a.tileActive[t]) / float64(arch.TileSTEs))
			en.Controller += hwmodel.LocalController.AccessEnergyPJ(1)
		}
		en.Controller += hwmodel.GlobalController.AccessEnergyPJ(1)
		if !a.bvPhase {
			return
		}
		// Bit-vector-processing phase: depth cycles, array stalled, tiles
		// without active BVs disabled (§3.3). Only the columns of the bit
		// vectors that actually updated are read, routed and written back.
		rep.StallCycles += int64(depth)
		trace[k] = uint16(depth)
		for _, t := range usedTiles {
			if a.bvCols[t] == 0 {
				continue
			}
			frac := min(float64(a.bvCols[t])/float64(arch.TileSTEs), 1)
			for d := 0; d < depth; d++ {
				// read + write of one BV word across the active BV
				// columns, routed through the local switch.
				en.CAM += 2 * hwmodel.CAM.AccessEnergyPJ(1) * frac
				en.LocalSwitch += hwmodel.SRAM128.AccessEnergyPJ(frac)
				en.Controller += hwmodel.LocalController.AccessEnergyPJ(1)
			}
		}
	}
}

// rapLNFACharge charges one LNFA-mode array cycle: Shift-And in the
// active vector, column-gated CAM searches, power-gated tiles without
// initial or active states (§3.2), and ring routing between adjacent
// tiles.
func rapLNFACharge(rep *Report, plan *arch.ArrayPlan, en *EnergyBreakdown) func(int, *activity) {
	used := int64(len(usedTileIndices(plan)))
	return func(_ int, a *activity) {
		rep.LNFATileCycles += used
		for t := range plan.Tiles {
			activeStates := a.tileActive[t]
			initCols := a.initCols[t]
			if activeStates == 0 && initCols == 0 {
				if plan.Tiles[t].LNFAUsed() > 0 {
					rep.GatedTileCycles++
				}
				continue // power-gated
			}
			// Every bin-leading initial column is searched every cycle.
			cols := activeStates + initCols
			if a.camTiles[t] {
				en.CAM += hwmodel.CAM.AccessEnergyPJ(1) * float64(cols) / float64(arch.TileSTEs)
			}
			if a.switchTiles[t] {
				// One-hot matching drives a single row of the local switch.
				en.LocalSwitch += hwmodel.SRAM128.AccessEnergyPJ(1.0 / float64(arch.TileSTEs))
			}
			en.Controller += hwmodel.LocalController.AccessEnergyPJ(1)
		}
		en.Controller += hwmodel.GlobalController.AccessEnergyPJ(1)
		en.Wire += float64(a.ringHops) * ringHopMM * hwmodel.GlobalWire.AccessEnergyPJ(1)
	}
}

func usedTileIndices(plan *arch.ArrayPlan) []int {
	var out []int
	for i := range plan.Tiles {
		t := &plan.Tiles[i]
		if t.Columns() > 0 || t.LNFAUsed() > 0 {
			out = append(out, i)
		}
	}
	return out
}
