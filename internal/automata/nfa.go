// Package automata implements homogeneous nondeterministic finite automata
// (§2.1): the Glushkov construction from regex ASTs (Construct, which the
// NBVA builder shares), a bitset-based software simulator used as the
// functional reference for all hardware modes, and the one DFA type the
// software matcher scans with: BuildDFA determinizes the disjoint union of
// its members, one pattern for the wake loop, several for the windowed
// group and the SFA.
package automata

import (
	"fmt"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/charclass"
)

// State is one position of a homogeneous NFA. All transitions entering the
// state are labeled with its Class (homogeneity, §2.1).
type State struct {
	Class  charclass.Class
	Follow []int // successor state indices, strictly increasing
}

// NFA is a homogeneous NFA (Q, L, Δ, I, F). It is ε-free; acceptance of
// the empty string is recorded separately in MatchesEmpty.
type NFA struct {
	States  []State
	Initial []int // strictly increasing
	Final   []int // strictly increasing

	// MatchesEmpty records whether the language contains ε (the regex is
	// nullable). Streaming matchers report a match at every offset for
	// such patterns.
	MatchesEmpty bool

	// StartAnchored restricts initial states to being available only for
	// the first input symbol (an AP "start-of-data" STE rather than an
	// "all-input" STE). EndAnchored restricts reporting to end of input.
	StartAnchored bool
	EndAnchored   bool
}

// NumStates returns |Q|.
func (n *NFA) NumStates() int { return len(n.States) }

// InitialSet returns the initial states as a bit vector.
func (n *NFA) InitialSet() bitvec.Vector {
	v := bitvec.New(len(n.States))
	for _, q := range n.Initial {
		v.Set(q)
	}
	return v
}

// FinalSet returns the final states as a bit vector.
func (n *NFA) FinalSet() bitvec.Vector {
	v := bitvec.New(len(n.States))
	for _, q := range n.Final {
		v.Set(q)
	}
	return v
}

// FollowMasks precomputes, for every state, the bit vector of its
// successors. Simulators use it for fast state transition.
func (n *NFA) FollowMasks() []bitvec.Vector {
	masks := make([]bitvec.Vector, len(n.States))
	for i, s := range n.States {
		m := bitvec.New(len(n.States))
		for _, q := range s.Follow {
			m.Set(q)
		}
		masks[i] = m
	}
	return masks
}

// String renders the automaton in a compact diagnostic form.
func (n *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFA{%d states, I=%v, F=%v", len(n.States), n.Initial, n.Final)
	if n.MatchesEmpty {
		b.WriteString(", ε")
	}
	b.WriteString("}\n")
	for i, s := range n.States {
		fmt.Fprintf(&b, "  q%d: %s -> %v\n", i, s.Class.String(), s.Follow)
	}
	return b.String()
}

// Runner simulates an NFA over a byte stream one symbol at a time,
// mirroring the state-matching / state-transition cycle structure of
// AP-style hardware (§2.2). It is the functional reference all cycle-level
// simulators are checked against. State matching uses precomputed per-byte
// label masks (the CAM search result) so a step costs O(words + active).
type Runner struct {
	nfa     *NFA
	follow  []bitvec.Vector
	labels  [256]bitvec.Vector
	initial bitvec.Vector
	final   bitvec.Vector
	active  bitvec.Vector
	next    bitvec.Vector
	scratch bitvec.Vector
	pos     int
}

// NewRunner creates a fresh runner with no active states.
func NewRunner(n *NFA) *Runner {
	r := &Runner{
		nfa:     n,
		follow:  n.FollowMasks(),
		initial: n.InitialSet(),
		final:   n.FinalSet(),
		active:  bitvec.New(len(n.States)),
		next:    bitvec.New(len(n.States)),
		scratch: bitvec.New(len(n.States)),
	}
	for c := 0; c < 256; c++ {
		v := bitvec.New(len(n.States))
		for i, s := range n.States {
			if s.Class.Contains(byte(c)) {
				v.Set(i)
			}
		}
		r.labels[c] = v
	}
	return r
}

// Step consumes one input byte and reports whether a final state is active
// afterwards (a match ending at this symbol). For EndAnchored automata the
// caller must additionally check that the stream has ended.
func (r *Runner) Step(b byte) bool {
	// State transition: next = ∪ Follow(q) for active q, plus the initial
	// states ("all-input" STEs are available every cycle; start-anchored
	// only at offset 0).
	r.next.Reset()
	for q := r.active.NextSet(0); q >= 0; q = r.active.NextSet(q + 1) {
		r.next.Or(r.follow[q])
	}
	if !r.nfa.StartAnchored || r.pos == 0 {
		r.next.Or(r.initial)
	}
	// State matching: keep states whose class matches the input symbol.
	r.next.And(r.labels[b])
	r.active, r.next = r.next, r.active
	r.pos++
	r.scratch.CopyFrom(r.active)
	r.scratch.And(r.final)
	return r.scratch.Any()
}

// FinalsActive returns the number of final states active after the last
// Step — the number of reporting STEs firing this cycle, which is how
// AP-style hardware counts match reports.
func (r *Runner) FinalsActive() int {
	r.scratch.CopyFrom(r.active)
	r.scratch.And(r.final)
	return r.scratch.Count()
}

// MatchEnds runs the automaton over input and returns every offset i such
// that a match ends at input[i] (0-based, inclusive). A nullable pattern
// additionally matches before any input; by convention that is reported as
// offset -1. EndAnchored automata only report at the last offset.
func (n *NFA) MatchEnds(input []byte) []int {
	var ends []int
	if n.MatchesEmpty {
		ends = append(ends, -1)
	}
	r := NewRunner(n)
	for i, b := range input {
		if r.Step(b) {
			if !n.EndAnchored || i == len(input)-1 {
				ends = append(ends, i)
			}
		}
	}
	return ends
}
