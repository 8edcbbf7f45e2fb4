package refmatch

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/prefilter"
	"repro/internal/shiftand"
)

// A lane scans the patterns of one engine. The lowering builds a
// Matcher's lanes with the read-only tables they read; a Session opens its
// own copy of each, which shares the tables and adds the state its stream
// changes.
type lane interface {
	open() lane
	// scan consumes chunk, the stream bytes from global offset base on,
	// and reports through s in runs ascending in End: the ties of a run
	// and the runs themselves follow pattern order.
	scan(s *Session, chunk []byte, base int)
	reset()
	// pats lists the lane's patterns in the order it scans them, kernel
	// names the loop that scans the j-th of them, and engine is theirs.
	pats() []int
	kernel(j int) string
	engine() Engine
}

// shiftAndLane is a packed Shift-And machine; pf, when set, gates it to
// the candidate windows of its patterns' mandatory-literal union.
type shiftAndLane struct {
	sa       *shiftand.Machine
	members  []*compile.LinearSeq // the packed sequences, in order
	patterns []int                // per packed sequence
	analyses []*analysis          // per packed sequence, its pattern's
	pf       *prefilter.Set
	r        *shiftand.Runner
	stream   *prefilter.Stream // nil without pf
}

func (l *shiftAndLane) open() lane {
	c := *l
	c.r = shiftand.NewRunner(l.sa)
	if l.pf != nil {
		c.stream = l.pf.NewStream()
	}
	return &c
}

func (l *shiftAndLane) scan(s *Session, chunk []byte, base int) {
	emit := func(seq, end int) { s.report(l.patterns[seq], end, false) }
	if l.stream == nil {
		l.r.ScanChunk(chunk, base, emit)
		return
	}
	l.stream.Scan(chunk, func(at int, data []byte) { l.r.ScanChunk(data, at, emit) }, l.r.Reset)
}

func (l *shiftAndLane) reset() {
	l.r.Reset()
	if l.stream != nil {
		l.stream.Reset()
	}
}

// prefiltered returns the Shift-And lane of lanes that runs behind the
// prefilter, nil when no pattern is prefiltered.
func prefiltered(lanes []lane) *shiftAndLane {
	for _, l := range lanes {
		if l, ok := l.(*shiftAndLane); ok && l.pf != nil {
			return l
		}
	}
	return nil
}

func (l *shiftAndLane) pats() []int    { return l.patterns }
func (l *shiftAndLane) engine() Engine { return EngineShiftAnd }

func (l *shiftAndLane) kernel(int) string {
	if l.pf != nil {
		return "shiftand-multi behind " + l.pf.Kernel()
	}
	return "shiftand-multi"
}

// nbvaLane holds the NBVA machines in pattern order, each with its word
// kernel, or a nil kernel when it has more than nbva.MaxKernelStates
// control states and is stepped with an nbva.Runner. An NFA whose DFA
// outgrows the cap is here too, as a machine without bit vectors.
type nbvaLane struct {
	machines []*nbva.Machine
	kernels  []*nbva.Kernel
	nfas     []*automata.NFA // the NFA a machine was built from, nil for a compiled NBVA
	patterns []int
	words    int // vector words of all the kernels' states together
	runs     []nbvaRun
}

// nbvaRun is one machine's stream state: its kernel's, or its runner.
type nbvaRun struct {
	kernel nbva.KernelState
	step   *nbva.Runner
}

// open keeps the vectors of all the machines in one slab.
func (l *nbvaLane) open() lane {
	c := *l
	c.runs = make([]nbvaRun, len(l.machines))
	vec := make([]uint64, l.words)
	for j, k := range l.kernels {
		if k == nil {
			c.runs[j].step = nbva.NewRunner(l.machines[j])
			continue
		}
		c.runs[j].kernel = k.NewState(vec[:k.Words():k.Words()])
		vec = vec[k.Words():]
	}
	return &c
}

func (l *nbvaLane) scan(s *Session, chunk []byte, base int) {
	for j := range l.runs {
		p, anchored, run := l.patterns[j], l.machines[j].EndAnchored, &l.runs[j]
		if run.step == nil {
			run.kernel.ScanChunk(chunk, base, func(end int) { s.report(p, end, anchored) })
			continue
		}
		for i, b := range chunk {
			if run.step.Step(b) {
				for k := run.step.FinalsFired(); k > 0; k-- {
					s.report(p, base+i, anchored)
				}
			}
		}
	}
}

func (l *nbvaLane) reset() {
	for j := range l.runs {
		if run := &l.runs[j]; run.step == nil {
			run.kernel.Reset()
		} else {
			run.step.Reset()
		}
	}
}

func (l *nbvaLane) pats() []int    { return l.patterns }
func (l *nbvaLane) engine() Engine { return EngineNBVA }

func (l *nbvaLane) kernel(j int) string {
	name := "word64"
	if l.kernels[j] == nil {
		name = "step"
	}
	return fmt.Sprintf("%s (%d states, %d BV bits)", name, l.machines[j].NumStates(), l.machines[j].TotalBVBits())
}

// dfaLane holds the DFA-routed patterns in pattern order, all scanned by
// one automata.WakeLoop: a DFA at rest is stepped only on its wake pairs.
type dfaLane struct {
	dfas     []*automata.DFA
	nfas     []*automata.NFA // Glushkov NFA behind each DFA, for the SFA union
	patterns []int
	loop     automata.WakeLoop
	rows     []int32 // the row offset each DFA stopped in
}

func (l *dfaLane) open() lane {
	c := *l
	c.rows = make([]int32, len(l.dfas))
	return &c
}

func (l *dfaLane) scan(s *Session, chunk []byte, base int) {
	l.loop.Scan(l.rows, chunk, base, func(j, end int) { s.report(l.patterns[j], end, l.dfas[j].EndAnchored) })
}

func (l *dfaLane) reset() { clear(l.rows) }

func (l *dfaLane) pats() []int    { return l.patterns }
func (l *dfaLane) engine() Engine { return EngineDFA }

func (l *dfaLane) kernel(int) string { return "dfa-table" }
