package sim

import (
	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/stream"
)

// NBVAStallTraces runs only the functional NBVA engines of a placement
// and records, for every NBVA-mode array, the stall trace: the number of
// bit-vector-processing cycles incurred after each input symbol. The
// traces feed the bank-level buffering models in internal/stream, which
// quantify how much of the stall latency the §3.3 two-level buffering
// hides.
func NBVAStallTraces(res *compile.Result, p *arch.Placement, input []byte) ([]stream.StallTrace, error) {
	var traces []stream.StallTrace
	for ai := range p.Arrays {
		plan := &p.Arrays[ai]
		if plan.Mode != arch.ModeNBVA {
			continue
		}
		tr := make(stream.StallTrace, len(input))
		err := runArray(res, plan, input, func(k int, a *activity) {
			if a.bvPhase {
				tr[k] = uint16(plan.Depth)
			}
		})
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, nil
}
