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
	rep := &Report{Arch: archName, Chars: int64(len(input)), ClockGHz: clockFor(archName)}
	for ai := range p.Arrays {
		plan := &p.Arrays[ai]
		if plan.Mode != arch.ModeNFA {
			return nil, fmt.Errorf("sim: %s expects all-NFA placement, got %v array", archName, plan.Mode)
		}
		if err := runBaselineNFAArray(rep, archName, res, plan, input); err != nil {
			return nil, err
		}
	}
	rep.Cycles = int64(len(input))
	rep.Area = nfaStyleArea(archName, p)
	finishReport(rep, archName, p)
	return rep, nil
}

func runBaselineNFAArray(rep *Report, archName string, res *compile.Result, plan *arch.ArrayPlan, input []byte) error {
	e, err := newNFAArrayEngine(res, plan)
	if err != nil {
		return err
	}
	usedTiles := usedTileIndices(plan)
	colsFrac := make([]float64, len(plan.Tiles))
	for _, t := range usedTiles {
		colsFrac[t] = float64(plan.Tiles[t].Columns()) / float64(arch.TileSTEs)
	}
	crossEdges := plan.CrossTileEdges > 0
	var en EnergyBreakdown
	for i, b := range input {
		matches, _, crossActive := e.step(b, i == len(input)-1)
		rep.Matches += int64(matches)
		for _, t := range usedTiles {
			if archName == "CA" {
				// One driven row per match-array macro.
				en.CAM += float64(caMatchMacros) * hwmodel.SRAM128.AccessEnergyPJ(caMatchRowActivity) * colsFrac[t]
			} else {
				en.CAM += hwmodel.CAM.AccessEnergyPJ(1) * colsFrac[t]
			}
			en.LocalSwitch += hwmodel.SRAM128.AccessEnergyPJ(float64(e.tileMatched[t]) / float64(arch.TileSTEs))
		}
		en.Controller += hwmodel.GlobalController.AccessEnergyPJ(1)
		if crossEdges {
			en.GlobalSwitch += hwmodel.SRAM256.AccessEnergyPJ(float64(crossActive) / 256)
			en.Wire += float64(crossActive) * hwmodel.GlobalWireMMPerHop * hwmodel.GlobalWire.AccessEnergyPJ(1)
		}
	}
	rep.Energy.Add(en)
	return nil
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
	var maxCycles int64
	for ai := range p.Arrays {
		plan := &p.Arrays[ai]
		var cycles int64
		var err error
		switch plan.Mode {
		case arch.ModeNFA:
			err = runBaselineNFAArray(rep, "CAMA", res, plan, input)
			cycles = int64(len(input))
		case arch.ModeNBVA:
			cycles, err = runBVAPNBVAArray(rep, res, plan, input)
		default:
			err = fmt.Errorf("sim: BVAP cannot run %v arrays", plan.Mode)
		}
		if err != nil {
			return nil, err
		}
		if cycles > maxCycles {
			maxCycles = cycles
		}
	}
	if maxCycles == 0 {
		maxCycles = int64(len(input))
	}
	rep.Cycles = maxCycles
	rep.Area = bvapArea(p)
	finishReport(rep, "BVAP", p)
	return rep, nil
}

func runBVAPNBVAArray(rep *Report, res *compile.Result, plan *arch.ArrayPlan, input []byte) (int64, error) {
	e, err := newNBVAArrayEngine(res, plan)
	if err != nil {
		return 0, err
	}
	usedTiles := usedTileIndices(plan)
	ccFrac := make([]float64, len(plan.Tiles))
	for _, t := range usedTiles {
		ccFrac[t] = float64(plan.Tiles[t].CCColumns) / float64(arch.TileSTEs)
	}
	var en EnergyBreakdown
	var st nbvaStep
	cycles := int64(0)
	for _, b := range input {
		e.step(b, &st)
		rep.Matches += int64(st.matches)
		cycles++
		for _, t := range usedTiles {
			en.CAM += hwmodel.CAM.AccessEnergyPJ(1) * ccFrac[t]
			en.LocalSwitch += hwmodel.SRAM128.AccessEnergyPJ(float64(st.tileMatched[t]) / float64(arch.TileSTEs))
			en.BVM += bvapBVMIdlePJ
		}
		en.Controller += hwmodel.GlobalController.AccessEnergyPJ(1)
		if st.anyBV {
			cycles += int64(bvapStallCycles)
			rep.StallCycles += int64(bvapStallCycles)
			for _, t := range usedTiles {
				if st.bvTileCols[t] == 0 {
					continue
				}
				en.BVM += float64(bvapStallCycles) * bvapBVMEnergyPJ
			}
		}
	}
	rep.Energy.Add(en)
	return cycles, nil
}
