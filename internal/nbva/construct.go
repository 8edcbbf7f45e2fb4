package nbva

import (
	"errors"
	"fmt"

	"repro/internal/automata"
	"repro/internal/regexast"
)

// ErrNotCompilable is returned when the AST contains a repetition shape
// the NBVA backend cannot express directly (e.g. a bounded repetition of a
// composite sub-expression that the compiler should have unfolded first).
var ErrNotCompilable = errors.New("nbva: repetition shape not compilable to BV actions")

// ConstructFromNode builds an NBVA Machine from an AST node that has already
// been through the §4.1 pipeline (UnfoldThreshold then SplitMinMax): every
// remaining finite bounded repetition must be over a single character
// class and have the form σ{m} (compiled to a BV-STE with r(m)) or σ{0,k}
// (compiled to a BV-STE with rAll). It is the Glushkov construction
// (automata.Construct) with each such repetition kept as one position.
// Anchors live on the regex, not the node: the caller sets the machine's
// StartAnchored / EndAnchored.
func ConstructFromNode(root regexast.Node) (*Machine, error) {
	g, err := automata.Construct(root, bvPosition)
	if err != nil {
		return nil, err
	}
	m := &Machine{States: make([]STE, len(g.Leaves)), Initial: g.First, Final: g.Last, MatchesEmpty: g.Nullable}
	for i, leaf := range g.Leaves {
		s := &m.States[i]
		s.Follow = g.Follow[i]
		if lit, ok := leaf.(*regexast.Lit); ok {
			s.Class = lit.Class
			continue
		}
		r := leaf.(*regexast.Repeat)
		s.Class = r.Sub.(*regexast.Lit).Class
		switch {
		case r.Min == r.Max && r.Min >= 2:
			s.BV = &BVSpec{Size: r.Min, Read: ReadExact}
		case r.Min == 0:
			s.BV = &BVSpec{Size: r.Max, Read: ReadAll}
		}
	}
	return m, nil
}

// FromNFA is the machine of a homogeneous NFA, sharing its lists: one
// standard STE per state, with the NFA's anchors and empty-match flag.
func FromNFA(n *automata.NFA) *Machine {
	m := &Machine{States: make([]STE, len(n.States)), Initial: n.Initial, Final: n.Final,
		MatchesEmpty: n.MatchesEmpty, StartAnchored: n.StartAnchored, EndAnchored: n.EndAnchored}
	for q, s := range n.States {
		m.States[q] = STE{Class: s.Class, Follow: s.Follow}
	}
	return m
}

// bvPosition is Construct's bounded hook: σ{m} (m ≥ 2) becomes a BV-STE
// with r(m), the nullable σ{0,k} one with rAll, and σ{1} a plain STE.
func bvPosition(t *regexast.Repeat) (nullable bool, err error) {
	if t.Max == regexast.Unbounded {
		return false, fmt.Errorf("%w: r{%d,} must be split into r{%d}r* first", ErrNotCompilable, t.Min, t.Min)
	}
	if _, ok := t.Sub.(*regexast.Lit); !ok {
		return false, fmt.Errorf("%w: {%d,%d} over %T", ErrNotCompilable, t.Min, t.Max, t.Sub)
	}
	switch {
	case t.Min == t.Max && t.Min >= 1:
		return false, nil
	case t.Min == 0 && t.Max >= 1:
		return true, nil
	}
	return false, fmt.Errorf("%w: σ{%d,%d} must be split into σ{%d}σ{0,%d} first",
		ErrNotCompilable, t.Min, t.Max, t.Min, t.Max-t.Min)
}
