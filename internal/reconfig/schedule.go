package reconfig

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/hwmodel"
)

// quiesceFlushCycles is the fixed pipeline-drain cost of taking one array
// out of the match path: the input FIFO empties and the last symbol's
// CAM-search/transition completes (mirrors the 2-cycle active-vector swap
// of the flows context-switch model).
const quiesceFlushCycles = 2

// ArrayStep is one array's slot in the reconfiguration window.
type ArrayStep struct {
	Array int
	Bank  int
	// QuiesceCycles drains the array: pipeline flush plus, for NBVA-mode
	// arrays, an in-flight bit-vector-processing phase of Depth cycles.
	QuiesceCycles int64
	// ReloadCycles streams this array's share of the delta through the
	// bank config bus.
	ReloadCycles int64
	// StartCycle/EndCycle place the reload inside the window. Arrays of
	// one bank serialize on the bank bus; quiescing overlaps.
	StartCycle, EndCycle int64
}

// Plan schedules a delta onto a deployed fabric: which arrays quiesce,
// when each reloads, and how long the chip-level stall window is.
// Untouched arrays keep matching throughout — only touched banks pause
// their input broadcast while their arrays reload.
type Plan struct {
	Steps []ArrayStep
	// StallCycles is the chip-level stall: the longest per-bank window
	// (quiesce + serialized reloads). Zero when the delta is empty.
	StallCycles int64
	// UntouchedArrays keep matching during the swap.
	UntouchedArrays int
	// Cost is CostOf the scheduled delta: write counts, payload, total
	// reload cycles and configuration-write energy.
	Cost Cost
}

// Schedule plans the quiesce-drain-reload of d against the target image
// (the image the fabric runs after the swap; its array modes/depths
// decide quiesce costs). Per array, reload cycles are that array's share
// of the delta payload; arrays in the same bank serialize their reloads
// on the bank's config bus while arrays in different banks reload in
// parallel. Steps holds one entry per touched array, in ascending order.
func Schedule(d *Delta, target *bitstream.Image) (*Plan, error) {
	cost, loads := d.account()
	if n := len(loads); n > 0 && (loads[0].array < 0 || loads[n-1].array >= len(target.Arrays)) {
		return nil, fmt.Errorf("reconfig: delta touches arrays %d..%d but target has %d", loads[0].array, loads[n-1].array, len(target.Arrays))
	}
	plan := &Plan{
		Steps:           make([]ArrayStep, 0, len(loads)),
		UntouchedArrays: len(target.Arrays) - len(loads),
		Cost:            cost,
	}
	// Bank by bank: the bank's arrays quiesce in parallel at window start,
	// then reload back to back on the bank bus once the slowest has drained.
	for i := 0; i < len(loads); {
		bank := loads[i].array / arch.ArraysPerBank
		first := len(plan.Steps)
		var maxQuiesce int64
		for ; i < len(loads) && loads[i].array/arch.ArraysPerBank == bank; i++ {
			q := int64(quiesceFlushCycles)
			a := &target.Arrays[loads[i].array]
			if a.Mode == arch.ModeNBVA {
				// An in-flight bit-vector-processing phase must complete
				// before the CAM contents can be rewritten.
				q += int64(a.Depth)
			}
			maxQuiesce = max(maxQuiesce, q)
			_, reload := streamCycles(loads[i].bits)
			plan.Steps = append(plan.Steps, ArrayStep{
				Array: loads[i].array, Bank: bank,
				QuiesceCycles: q,
				ReloadCycles:  reload,
			})
		}
		start := maxQuiesce
		for s := first; s < len(plan.Steps); s++ {
			st := &plan.Steps[s]
			st.StartCycle = start
			st.EndCycle = start + st.ReloadCycles
			start = st.EndCycle
		}
		plan.StallCycles = max(plan.StallCycles, start)
	}
	return plan, nil
}

// LatencyUS returns the stall window in microseconds at the RAP clock.
func (p *Plan) LatencyUS() float64 {
	return float64(p.StallCycles) / (hwmodel.ClockRAPGHz * 1e3)
}
