package automata

import (
	"fmt"
	"slices"

	"repro/internal/regexast"
)

// DefaultMaxStates bounds the size of automata produced by Glushkov when
// unfolding bounded repetitions. It matches the largest regex RAP supports
// in NBVA mode after unfolding (§3.3: 64528 STEs).
const DefaultMaxStates = 64528

// Glushkov builds the homogeneous ε-free NFA of the regex using the
// Glushkov (position) construction (§2.1). Finite bounded repetitions are
// unfolded first; the construction fails with regexast.ErrBudget if the
// unfolded expression exceeds maxStates positions (pass 0 for
// DefaultMaxStates).
func Glushkov(re *regexast.Regex, maxStates int) (*NFA, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	root, err := regexast.UnfoldAll(re.Root, maxStates)
	if err != nil {
		return nil, err
	}
	g, err := Construct(root, nil)
	if err != nil {
		return nil, err
	}
	nfa := &NFA{
		States:        make([]State, len(g.Leaves)),
		Initial:       g.First,
		Final:         g.Last,
		MatchesEmpty:  g.Nullable,
		StartAnchored: re.StartAnchored,
		EndAnchored:   re.EndAnchored,
	}
	for i, leaf := range g.Leaves {
		nfa.States[i] = State{Class: leaf.(*regexast.Lit).Class, Follow: g.Follow[i]}
	}
	return nfa, nil
}

// Positions is the Glushkov (position) construction of an expression
// (§2.1). Position i is Leaves[i]: a *regexast.Lit, or a *regexast.Repeat
// the bounded hook kept whole. Positions are numbered in left-to-right leaf
// order, and every list is strictly increasing.
type Positions struct {
	Leaves   []regexast.Node
	Follow   [][]int // Follow[i] is nil when position i has no successor
	First    []int
	Last     []int
	Nullable bool
}

// Construct computes the positions of root and their first, last, follow
// and nullable sets. It handles *, + and ? itself and hands every other
// repetition to bounded, which either keeps it as one position (reporting
// whether that position matches ε) or refuses it with an error. A nil
// bounded refuses every one: the NFA route unfolds them all beforehand.
func Construct(root regexast.Node, bounded func(*regexast.Repeat) (nullable bool, err error)) (Positions, error) {
	c := construction{bounded: bounded}
	top, err := c.visit(root)
	if err != nil {
		return Positions{}, err
	}
	return Positions{Leaves: c.leaves, Follow: c.follow, First: top.first, Last: top.last, Nullable: top.nullable}, nil
}

// sets are the Glushkov sets of one subexpression.
type sets struct {
	nullable    bool
	first, last []int
}

type construction struct {
	bounded func(*regexast.Repeat) (bool, error)
	leaves  []regexast.Node
	follow  [][]int
}

// position numbers leaf as the next position.
func (c *construction) position(leaf regexast.Node, nullable bool) sets {
	p := len(c.leaves)
	c.leaves = append(c.leaves, leaf)
	c.follow = append(c.follow, nil)
	one := []int{p} // nothing writes a set in place
	return sets{nullable: nullable, first: one, last: one}
}

func (c *construction) visit(n regexast.Node) (sets, error) {
	switch t := n.(type) {
	case regexast.Empty:
		return sets{nullable: true}, nil
	case *regexast.Lit:
		return c.position(t, false), nil
	case *regexast.Concat:
		cur := sets{nullable: true}
		for _, s := range t.Subs {
			si, err := c.visit(s)
			if err != nil {
				return sets{}, err
			}
			// Every position of si is numbered after every existing
			// edge's target, so appending keeps each follow list sorted.
			for _, p := range cur.last {
				c.follow[p] = append(c.follow[p], si.first...)
			}
			if cur.nullable {
				cur.first = union(cur.first, si.first)
			}
			if si.nullable {
				cur.last = union(cur.last, si.last)
			} else {
				cur.last = si.last
			}
			cur.nullable = cur.nullable && si.nullable
		}
		return cur, nil
	case *regexast.Alt:
		var out sets
		for _, s := range t.Subs {
			si, err := c.visit(s)
			if err != nil {
				return sets{}, err
			}
			out.nullable = out.nullable || si.nullable
			out.first = union(out.first, si.first)
			out.last = union(out.last, si.last)
		}
		return out, nil
	case *regexast.Repeat:
		loop := t.Max == regexast.Unbounded && t.Min <= 1
		if !loop && (t.Min != 0 || t.Max != 1) {
			if c.bounded == nil {
				return sets{}, fmt.Errorf("automata: bounded repetition {%d,%d} survived unfolding", t.Min, t.Max)
			}
			nullable, err := c.bounded(t)
			if err != nil {
				return sets{}, err
			}
			return c.position(t, nullable), nil
		}
		si, err := c.visit(t.Sub)
		if err != nil {
			return sets{}, err
		}
		if loop { // back edges may precede or repeat existing ones: merge
			for _, p := range si.last {
				f := append(c.follow[p], si.first...)
				slices.Sort(f)
				c.follow[p] = slices.Compact(f)
			}
		}
		return sets{nullable: si.nullable || t.Min == 0, first: si.first, last: si.last}, nil
	default:
		return sets{}, fmt.Errorf("automata: unknown node %T", n)
	}
}

// union merges the sets of two subexpressions, a's left of b's. Every
// position of b is numbered after every position of a, so appending keeps
// the result strictly increasing.
func union(a, b []int) []int {
	return append(append(make([]int, 0, len(a)+len(b)), a...), b...)
}
