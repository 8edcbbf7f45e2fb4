package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/hwmodel"
	"repro/internal/mapper"
)

// SimulateBaseline runs the CAMA or CA baseline over an all-NFA
// compilation (§5.2: all baselines adopt 128×128 FCB local switches and
// the same circuit models and greedy mapping).
//
// CAMA matches states with a 32×128 CAM search per tile; CA activates one
// one-hot row of a 256×128 SRAM match array (two SRAM128 macros), which is
// slightly cheaper per access but costs twice the match-array area.
func SimulateBaseline(archName string, res *compile.Result, p *arch.Placement, input []byte) (*Report, error) {
	if archName != "CAMA" && archName != "CA" {
		return nil, fmt.Errorf("sim: unknown baseline %q", archName)
	}
	camPJ := hwmodel.CAM.AccessEnergyPJ(1)
	if archName == "CA" {
		// One driven row per match-array macro.
		camPJ = float64(caMatchMacros) * hwmodel.SRAM128.AccessEnergyPJ(caMatchRowActivity)
	}
	rep := &Report{Arch: archName, Chars: int64(len(input)), ClockGHz: clockFor(archName)}
	err := chargeArrays(rep, res, p, input, func(plan *arch.ArrayPlan, en *EnergyBreakdown) (func(int, *activity), error) {
		if plan.Mode != arch.ModeNFA {
			return nil, fmt.Errorf("sim: %s expects all-NFA placement, got %v array", archName, plan.Mode)
		}
		return nfaCharge(plan, en, camPJ, 0), nil
	})
	if err != nil {
		return nil, err
	}
	rep.Cycles = int64(len(input))
	rep.Area = nfaStyleArea(archName, p)
	finishReport(rep, archName, p)
	return rep, nil
}

// --- BVAP -------------------------------------------------------------

// MapBVAP places a ModePolicy=AllowNBVA result onto BVAP hardware: NFA regexes
// use the standard greedy NFA mapping; NBVA regexes use CAMA-style tiles
// whose fixed Bit Vector Module provides bvapBVsPerTile slots of
// bvapBVBits bits each.
func MapBVAP(res *compile.Result) (*arch.Placement, error) {
	// NFA part through the shared mapper.
	nfaOnly := &compile.Result{Regexes: make([]compile.Compiled, len(res.Regexes))}
	for i := range res.Regexes {
		if res.Regexes[i].Mode == compile.ModeNFA {
			nfaOnly.Regexes[i] = res.Regexes[i]
		}
	}
	p, err := mapper.Map(nfaOnly, mapper.Options{})
	if err != nil {
		return nil, err
	}
	// NBVA part with BVAP's fixed-slot allocation.
	var cur *arch.ArrayPlan
	openArray := func() {
		p.Arrays = append(p.Arrays, arch.ArrayPlan{
			Mode:  arch.ModeNBVA,
			Tiles: make([]arch.TilePlan, arch.TilesPerArray),
			Depth: bvapStallCycles, // BVM pipeline depth
		})
		cur = &p.Arrays[len(p.Arrays)-1]
	}
	maxBVBitsPerTile := bvapBVsPerTile * bvapBVBits
	for i := range res.Regexes {
		c := &res.Regexes[i]
		if c.Mode != compile.ModeNBVA || c.Source == "" {
			continue
		}
		if cur == nil {
			openArray()
		}
		if !bvapTryPlace(cur, c, maxBVBitsPerTile) {
			openArray()
			if !bvapTryPlace(cur, c, maxBVBitsPerTile) {
				return nil, fmt.Errorf("%w: %q does not fit one BVAP array", mapper.ErrUnmappable, c.Source)
			}
		}
		cur.Regexes = append(cur.Regexes, c.Index)
	}
	return p, nil
}

// bvapTryPlace first-fit packs one NBVA regex's STEs into the array. Like
// the mapper's tryPlace, it decides the fit on the tiles' occupancy counts
// and writes the tiles only once the whole regex fits.
func bvapTryPlace(a *arch.ArrayPlan, c *compile.Compiled, maxBVBitsPerTile int) bool {
	var ccUsed, slotsUsed [arch.TilesPerArray]int
	for t := range ccUsed {
		ccUsed[t] = a.Tiles[t].CCColumns
		for _, bv := range a.Tiles[t].BVs {
			slotsUsed[t] += bv.Width // Width stores BVM slots for BVAP
		}
	}
	at := make([]int16, len(c.NBVA.States))
	for q, s := range c.NBVA.States {
		needSlots := 0
		if s.BV != nil {
			if s.BV.Size > maxBVBitsPerTile {
				return false // BVAP cannot split across its BVM boundary
			}
			needSlots = bvapSlots(s.BV.Size)
		}
		tile := -1
		for t := range ccUsed {
			if ccUsed[t]+1 > arch.TileSTEs || slotsUsed[t]+needSlots > bvapBVsPerTile {
				continue
			}
			ccUsed[t]++
			slotsUsed[t] += needSlots
			tile = t
			break
		}
		if tile < 0 {
			return false
		}
		at[q] = int16(tile)
	}
	copy(a.PlaceStates(c.Index, len(at)), at)
	for q, s := range c.NBVA.States {
		tp := &a.Tiles[at[q]]
		tp.CCColumns++
		if s.BV != nil {
			tp.BVs = append(tp.BVs, arch.BVAlloc{
				Regex: c.Index, STE: q, Size: s.BV.Size,
				Width: bvapSlots(s.BV.Size), Depth: bvapStallCycles, Read: s.BV.Read,
			})
			tp.HasBV = true
		}
		if len(tp.Regexes) == 0 || tp.Regexes[len(tp.Regexes)-1] != c.Index {
			tp.Regexes = append(tp.Regexes, c.Index)
		}
	}
	return true
}

// bvapSlots is the number of fixed-size BVM slots a bit vector occupies.
func bvapSlots(size int) int { return (size + bvapBVBits - 1) / bvapBVBits }

// SimulateBVAP runs the BVAP baseline: CAMA-style state matching plus the
// event-driven BVM pipeline (read, route, act) that stalls the array for
// bvapStallCycles per triggered symbol (§2.2).
func SimulateBVAP(res *compile.Result, p *arch.Placement, input []byte) (*Report, error) {
	rep := &Report{Arch: "BVAP", Chars: int64(len(input)), ClockGHz: clockFor("BVAP")}
	// The slowest array bounds throughput: the input length plus the
	// most stall cycles any one NBVA array took.
	var maxStalls int64
	err := chargeArrays(rep, res, p, input, func(plan *arch.ArrayPlan, en *EnergyBreakdown) (func(int, *activity), error) {
		switch plan.Mode {
		case arch.ModeNFA:
			return nfaCharge(plan, en, hwmodel.CAM.AccessEnergyPJ(1), 0), nil
		case arch.ModeNBVA:
			return bvapNBVACharge(rep, plan, en, &maxStalls), nil
		}
		return nil, fmt.Errorf("sim: BVAP cannot run %v arrays", plan.Mode)
	})
	if err != nil {
		return nil, err
	}
	rep.Cycles = int64(len(input)) + maxStalls
	rep.Area = bvapArea(p)
	finishReport(rep, "BVAP", p)
	return rep, nil
}

// bvapNBVACharge charges one BVAP NBVA array cycle: CAMA-style state
// matching on the CC columns, the BVM's idle event detection on every
// used tile and, when a bit vector fires, bvapStallCycles of BVM pipeline
// on each tile with an updated one. It raises *maxStalls to the array's
// stall cycles so far.
func bvapNBVACharge(rep *Report, plan *arch.ArrayPlan, en *EnergyBreakdown, maxStalls *int64) func(int, *activity) {
	usedTiles := usedTileIndices(plan)
	ccFrac := make([]float64, len(plan.Tiles))
	for _, t := range usedTiles {
		ccFrac[t] = float64(plan.Tiles[t].CCColumns) / float64(arch.TileSTEs)
	}
	var stalls int64
	return func(_ int, a *activity) {
		for _, t := range usedTiles {
			en.CAM += hwmodel.CAM.AccessEnergyPJ(1) * ccFrac[t]
			en.LocalSwitch += hwmodel.SRAM128.AccessEnergyPJ(float64(a.tileActive[t]) / float64(arch.TileSTEs))
			en.BVM += bvapBVMIdlePJ
		}
		en.Controller += hwmodel.GlobalController.AccessEnergyPJ(1)
		if !a.bvPhase {
			return
		}
		stalls += bvapStallCycles
		*maxStalls = max(*maxStalls, stalls)
		rep.StallCycles += bvapStallCycles
		for _, t := range usedTiles {
			if a.bvCols[t] != 0 {
				en.BVM += float64(bvapStallCycles) * bvapBVMEnergyPJ
			}
		}
	}
}
