package refmatch

import (
	"fmt"
	"sync"

	"repro/internal/automata"
	"repro/internal/nbva"
	"repro/internal/prefilter"
)

// A lane scans the patterns of one engine. The lowering builds a
// Matcher's lanes with the read-only tables they read; a Session opens its
// own copy of each, which shares the tables and adds the state its stream
// changes.
type lane interface {
	open() lane
	// scan consumes chunk, the stream bytes from global offset base on,
	// and reports through s in runs ascending in End, each run covering
	// a span of the chunk that no earlier run reaches past: the ties of
	// a run and the runs themselves follow pattern order, so reports of
	// one End keep pattern order under a stable sort by End.
	scan(s *Session, chunk []byte, base int)
	reset()
	// pats lists the lane's patterns in the order it scans them, kernel
	// names the loop that scans the j-th of them, and engine is theirs.
	pats() []int
	kernel(j int) string
	engine() Engine
}

// windowGroup is the windowed group's read-only half: its members, the
// prefilter of their literal union and, built on first use, union DFAs of
// their Glushkov NFAs, packed in member order and halved until each fits
// the DFA state cap. A later generation with the same members takes it
// whole.
type windowGroup struct {
	members []*lowering
	pf      *prefilter.Set
	cap     int
	once    sync.Once
	unions  []*automata.DFA
	first   []int // per union, its first member
}

// newWindowGroup builds the prefilter of members' literal union, with
// windows as wide as their longest match, and defers the union DFAs.
func newWindowGroup(members []*lowering, cap int) (*windowGroup, error) {
	var lits [][]byte
	window := 0
	for _, l := range members {
		lits = append(lits, l.lits...)
		window = max(window, l.window)
	}
	pf, err := prefilter.NewSet(lits, window)
	if err != nil {
		return nil, fmt.Errorf("refmatch: prefilter: %w", err)
	}
	return &windowGroup{members: members, pf: pf, cap: cap}, nil
}

// dfas returns the group's union DFAs, building them on first use.
func (g *windowGroup) dfas() []*automata.DFA {
	g.once.Do(func() {
		nfas := make([]*automata.NFA, len(g.members))
		for j, l := range g.members {
			nfas[j] = l.nfa
		}
		g.pack(nfas, 0)
	})
	return g.unions
}

// pack builds the union DFA of nfas, members first on, or of each half
// when it outgrows the cap. Lowering put a member in the group only once
// the same call built its own DFA under the same cap.
func (g *windowGroup) pack(nfas []*automata.NFA, first int) {
	u, err := automata.BuildDFA(g.cap, nfas...)
	if err == nil {
		g.unions, g.first = append(g.unions, u), append(g.first, first)
		return
	}
	if len(nfas) == 1 {
		panic(fmt.Sprintf("refmatch: windowed member %d fits no union: %v", first, err))
	}
	h := len(nfas) / 2
	g.pack(nfas[:h], first)
	g.pack(nfas[h:], first+h)
}

// windowLane runs the windowed group: its union DFAs step only inside the
// candidate windows of the group's prefilter.Stream, from state 0 after
// each gap no match can span.
type windowLane struct {
	g        *windowGroup
	patterns []int             // per member
	stream   *prefilter.Stream // a session's
	states   []int32           // per union, a session's once it scans
}

func (l *windowLane) open() lane {
	c := *l
	c.stream = l.g.pf.NewStream()
	return &c
}

func (l *windowLane) scan(s *Session, chunk []byte, base int) {
	unions := l.g.dfas()
	if l.states == nil {
		l.states = make([]int32, len(unions))
	}
	first := 0
	emit := func(j, end int) { s.report(l.patterns[first+j], end, false) }
	l.stream.Scan(chunk, func(at int, data []byte) {
		for k, u := range unions {
			first = l.g.first[k]
			l.states[k] = u.ScanFrom(l.states[k], data, at, emit)
		}
	}, func() { clear(l.states) })
}

func (l *windowLane) reset() {
	clear(l.states)
	l.stream.Reset()
}

func (l *windowLane) pats() []int    { return l.patterns }
func (l *windowLane) engine() Engine { return EngineDFA }

func (l *windowLane) kernel(int) string { return "dfa-union behind " + l.g.pf.Kernel() }

// nbvaLane holds the NBVA machines in pattern order, each with its word
// kernel, or a nil kernel when it has more than nbva.MaxKernelStates
// control states and is stepped with an nbva.Runner. An NFA or a linear
// pattern whose DFA outgrows the cap is here too, as a machine without
// bit vectors. A start byte that several kernels share is searched once
// per block, not once per machine: those kernels read its positions from
// the lane's one nbva.StartHits.
type nbvaLane struct {
	machines []*nbva.Machine
	kernels  []*nbva.Kernel
	starts   *nbva.Starts // the start bytes the kernels share
	patterns []int
	words    int // vector words of all the kernels' states together
	runs     []nbvaRun
	hits     nbva.StartHits // a session's
}

// nbvaRun is one machine's stream state: its kernel's, or its runner.
type nbvaRun struct {
	kernel nbva.KernelState
	step   *nbva.Runner
}

// hitBlock is the most bytes one start-byte search covers. A chunk is
// scanned a block at a time, so a session's slab of positions holds at
// most hitBlock of them, 64 KiB of int32, whatever the chunk.
const hitBlock = 16 << 10

// open keeps the vectors of all the machines in one slab.
func (l *nbvaLane) open() lane {
	c := *l
	c.hits = l.starts.NewHits()
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

// scan runs every machine over one block before the next, so the
// machines report per block, in pattern order.
func (l *nbvaLane) scan(s *Session, chunk []byte, base int) {
	for at := 0; at < len(chunk); at += hitBlock {
		block := chunk[at:min(at+hitBlock, len(chunk))]
		l.hits.Find(block)
		for j := range l.runs {
			p, anchored, run := l.patterns[j], l.machines[j].EndAnchored, &l.runs[j]
			if run.step == nil {
				run.kernel.ScanChunk(&l.hits, j, base+at, func(end int) { s.report(p, end, anchored) })
				continue
			}
			for i, b := range block {
				if run.step.Step(b) {
					for k := run.step.FinalsFired(); k > 0; k-- {
						s.report(p, base+at+i, anchored)
					}
				}
			}
		}
	}
	l.hits.Find(nil) // keeps no chunk past the scan
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
	} else if l.kernels[j].Memchr() {
		name = "word64 memchr"
	}
	return fmt.Sprintf("%s (%d states, %d BV bits)", name, l.machines[j].NumStates(), l.machines[j].TotalBVBits())
}

// dfaLane holds the DFA patterns in pattern order, linear ones off the
// prefilter among them, all scanned by one automata.WakeLoop: a DFA at
// rest is stepped only on its wake pairs.
type dfaLane struct {
	dfas     []*automata.DFA
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
