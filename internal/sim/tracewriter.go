package sim

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/arch"
	"repro/internal/compile"
)

// TraceEvent is one observability record emitted by Trace: a cycle at
// which something reportable happened in an array (a match fired, or an
// NBVA array entered its bit-vector-processing phase).
type TraceEvent struct {
	Offset  int64  `json:"offset"` // input symbol offset (0-based)
	Array   int    `json:"array"`  // array index in the placement
	Mode    string `json:"mode"`   // NFA / NBVA / LNFA
	Symbol  byte   `json:"symbol"` // input byte consumed
	Active  int    `json:"active"` // active STEs in the array
	Matches int    `json:"matches,omitempty"`
	BVPhase bool   `json:"bv_phase,omitempty"` // bit-vector-processing triggered
	Stall   int    `json:"stall,omitempty"`    // stall cycles incurred
}

// Trace re-executes the functional dataflow of a placement and writes one
// JSON line per reportable event (matches and bit-vector-processing
// phases) to w. It is the observability companion to SimulateRAP: the
// energy/throughput numbers come from SimulateRAP, the per-cycle story
// from Trace (rapsim -trace).
func Trace(res *compile.Result, p *arch.Placement, input []byte, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for ai := range p.Arrays {
		plan := &p.Arrays[ai]
		var encErr error
		err := runArray(res, plan, input, func(k int, a *activity) {
			if encErr != nil || (len(a.fired) == 0 && !a.bvPhase) {
				return
			}
			ev := TraceEvent{
				Offset: int64(k), Array: ai, Mode: plan.Mode.String(), Symbol: input[k],
				Matches: len(a.fired), BVPhase: a.bvPhase,
			}
			for _, n := range a.tileActive {
				ev.Active += n
			}
			if a.bvPhase {
				ev.Stall = plan.Depth
			}
			encErr = enc.Encode(ev)
		})
		if err != nil {
			return err
		}
		if encErr != nil {
			return encErr
		}
	}
	return bw.Flush()
}
