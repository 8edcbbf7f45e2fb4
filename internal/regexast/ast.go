// Package regexast defines the regular-expression abstract syntax tree used
// by the RAP compiler, a parser for the PCRE-style subset of §2.1
//
//	r := ε | σ | (r|r) | r·r | r* | r{m,n}
//
// extended with r?, r+, r{m}, r{m,}, '.', bracket classes and escapes, and
// the rewriting passes of §4 (bounded-repetition unfolding, r{m,n} →
// r{m}·r{0,n-m}, and distribution of union over concatenation for LNFA
// linearization).
package regexast

import (
	"fmt"
	"math"

	"repro/internal/charclass"
)

// Unbounded marks a repetition with no upper bound (r{m,} and r*).
const Unbounded = -1

// Node is a regex AST node. Exactly one of the concrete types below.
type Node interface {
	// States returns the number of Glushkov positions of the node as
	// written (each Repeat body counted once). This is the "size of the
	// expression" the §4.2 LNFA budget refers to.
	States() int
	isNode()
}

// Empty is ε, matching only the empty string.
type Empty struct{}

// Lit matches any single byte in Class.
type Lit struct {
	Class charclass.Class
}

// Concat matches the concatenation of Subs in order. Invariant: len >= 2
// after Simplify.
type Concat struct {
	Subs []Node
}

// Alt matches the union of Subs. Invariant: len >= 2 after Simplify.
type Alt struct {
	Subs []Node
}

// Repeat matches between Min and Max copies of Sub. Max == Unbounded means
// no upper bound. r* is Repeat{0, Unbounded}, r+ is Repeat{1, Unbounded},
// r? is Repeat{0, 1}, r{m,n} is Repeat{m, n}.
type Repeat struct {
	Sub      Node
	Min, Max int
}

func (Empty) isNode()   {}
func (*Lit) isNode()    {}
func (*Concat) isNode() {}
func (*Alt) isNode()    {}
func (*Repeat) isNode() {}

func (Empty) States() int { return 0 }
func (*Lit) States() int  { return 1 }
func (c *Concat) States() int {
	n := 0
	for _, s := range c.Subs {
		n += s.States()
	}
	return n
}
func (a *Alt) States() int {
	n := 0
	for _, s := range a.Subs {
		n += s.States()
	}
	return n
}
func (r *Repeat) States() int { return r.Sub.States() }

// Regex couples a parsed pattern with its anchoring flags and source text.
type Regex struct {
	Source        string
	Root          Node
	StartAnchored bool // pattern began with ^
	EndAnchored   bool // pattern ended with $
}

// UnfoldedStates returns the number of Glushkov positions after fully
// unfolding every bounded repetition — the size of the basic NFA (§2.1:
// "unfolding of r{m,n} increases the size by Θ(n)"). Unbounded repetitions
// count their body once (Glushkov adds no states for *). The result
// saturates at math.MaxInt/2 to avoid overflow on pathological bounds.
func UnfoldedStates(n Node) int {
	const cap = math.MaxInt / 2
	switch t := n.(type) {
	case Empty:
		return 0
	case *Lit:
		return 1
	case *Concat:
		total := 0
		for _, s := range t.Subs {
			total += UnfoldedStates(s)
			if total > cap {
				return cap
			}
		}
		return total
	case *Alt:
		total := 0
		for _, s := range t.Subs {
			total += UnfoldedStates(s)
			if total > cap {
				return cap
			}
		}
		return total
	case *Repeat:
		body := UnfoldedStates(t.Sub)
		reps := t.Max
		if reps == Unbounded {
			// r* and r+ are native (one body copy with a loop); r{m,} with
			// m >= 2 unfolds to r^m r* (m+1 copies), matching §4.1.
			if t.Min <= 1 {
				reps = 1
			} else {
				reps = t.Min + 1
			}
		}
		if reps == 0 {
			reps = 1 // r{0,0} still occupies nothing, but keep ε-safe
		}
		if body != 0 && reps > cap/body {
			return cap
		}
		return body * reps
	default:
		panic(fmt.Sprintf("regexast: unknown node %T", n))
	}
}

// Nullable reports whether the node matches the empty string.
func Nullable(n Node) bool {
	switch t := n.(type) {
	case Empty:
		return true
	case *Lit:
		return false
	case *Concat:
		for _, s := range t.Subs {
			if !Nullable(s) {
				return false
			}
		}
		return true
	case *Alt:
		for _, s := range t.Subs {
			if Nullable(s) {
				return true
			}
		}
		return false
	case *Repeat:
		return t.Min == 0 || Nullable(t.Sub)
	default:
		panic(fmt.Sprintf("regexast: unknown node %T", n))
	}
}

// MaxRepeatBound returns the largest finite repetition bound in the
// expression (0 when there is none).
func MaxRepeatBound(n Node) int {
	maxB := 0
	Walk(n, func(m Node) {
		if r, ok := m.(*Repeat); ok {
			if r.Max != Unbounded && r.Max > maxB {
				maxB = r.Max
			}
			if r.Min > maxB {
				maxB = r.Min
			}
		}
	})
	return maxB
}

// Walk visits every node in the tree in preorder.
func Walk(n Node, f func(Node)) {
	f(n)
	switch t := n.(type) {
	case *Concat:
		for _, s := range t.Subs {
			Walk(s, f)
		}
	case *Alt:
		for _, s := range t.Subs {
			Walk(s, f)
		}
	case *Repeat:
		Walk(t.Sub, f)
	}
}

// Simplify normalizes the tree: flattens nested Concat/Alt, removes ε from
// concatenations, collapses single-child sequences, and canonicalizes
// trivial repeats (r{1,1} -> r, r{0,0} -> ε). It never changes the
// language.
func Simplify(n Node) Node {
	switch t := n.(type) {
	case Empty, *Lit:
		return n
	case *Concat:
		var subs []Node
		for _, s := range t.Subs {
			s = Simplify(s)
			switch st := s.(type) {
			case Empty:
				// drop ε
			case *Concat:
				subs = append(subs, st.Subs...)
			default:
				subs = append(subs, s)
			}
		}
		switch len(subs) {
		case 0:
			return Empty{}
		case 1:
			return subs[0]
		}
		return &Concat{Subs: subs}
	case *Alt:
		var subs []Node
		for _, s := range t.Subs {
			s = Simplify(s)
			if sa, ok := s.(*Alt); ok {
				subs = append(subs, sa.Subs...)
			} else {
				subs = append(subs, s)
			}
		}
		if len(subs) == 1 {
			return subs[0]
		}
		return &Alt{Subs: subs}
	case *Repeat:
		sub := Simplify(t.Sub)
		if _, ok := sub.(Empty); ok {
			return Empty{}
		}
		switch {
		case t.Min == 0 && t.Max == 0:
			return Empty{}
		case t.Min == 1 && t.Max == 1:
			return sub
		}
		return &Repeat{Sub: sub, Min: t.Min, Max: t.Max}
	default:
		panic(fmt.Sprintf("regexast: unknown node %T", n))
	}
}

// Clone returns a deep copy of the tree.
func Clone(n Node) Node {
	switch t := n.(type) {
	case Empty:
		return Empty{}
	case *Lit:
		return &Lit{Class: t.Class}
	case *Concat:
		subs := make([]Node, len(t.Subs))
		for i, s := range t.Subs {
			subs[i] = Clone(s)
		}
		return &Concat{Subs: subs}
	case *Alt:
		subs := make([]Node, len(t.Subs))
		for i, s := range t.Subs {
			subs[i] = Clone(s)
		}
		return &Alt{Subs: subs}
	case *Repeat:
		return &Repeat{Sub: Clone(t.Sub), Min: t.Min, Max: t.Max}
	default:
		panic(fmt.Sprintf("regexast: unknown node %T", n))
	}
}
