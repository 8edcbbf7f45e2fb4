package regexast

import (
	"errors"
	"fmt"

	"repro/internal/charclass"
)

// ErrBudget is returned when a rewriting pass would exceed its state
// budget (e.g. LNFA linearization past the 2x limit of §4.2, or NFA
// unfolding past the hardware capacity).
var ErrBudget = errors.New("regexast: rewrite exceeds state budget")

// ErrNotLinear is returned when a regex cannot be rewritten into LNFA
// sequences at all (it contains an unbounded repetition).
var ErrNotLinear = errors.New("regexast: regex is not linearizable")

// UnfoldThreshold unfolds every bounded repetition whose bounds are at or
// below the threshold into concatenation and '?', the §4.1 "unfolding
// rewriting". r{m,n} with n <= threshold becomes r^m (r?)^(n-m); r{m,}
// with m <= threshold becomes r^m r*. Larger bounds are left intact for
// the NBVA backend. The result is simplified.
func UnfoldThreshold(n Node, threshold int) Node {
	return Simplify(unfoldThreshold(n, threshold))
}

func unfoldThreshold(n Node, threshold int) Node {
	switch t := n.(type) {
	case Empty, *Lit:
		return n
	case *Concat:
		subs := make([]Node, len(t.Subs))
		for i, s := range t.Subs {
			subs[i] = unfoldThreshold(s, threshold)
		}
		return &Concat{Subs: subs}
	case *Alt:
		subs := make([]Node, len(t.Subs))
		for i, s := range t.Subs {
			subs[i] = unfoldThreshold(s, threshold)
		}
		return &Alt{Subs: subs}
	case *Repeat:
		sub := unfoldThreshold(t.Sub, threshold)
		switch {
		case t.Min == 0 && t.Max == Unbounded, t.Min == 1 && t.Max == Unbounded, t.Min == 0 && t.Max == 1:
			// *, +, ? are native, nothing to unfold.
			return &Repeat{Sub: sub, Min: t.Min, Max: t.Max}
		case t.Max == Unbounded && t.Min <= threshold:
			// r{m,} -> r^m r*
			return concatCopies(sub, t.Min, &Repeat{Sub: Clone(sub), Min: 0, Max: Unbounded})
		case t.Max != Unbounded && t.Max <= threshold:
			// r{m,n} -> r^m (r?)^(n-m)
			var tail Node = Empty{}
			if t.Max > t.Min {
				opts := make([]Node, t.Max-t.Min)
				for i := range opts {
					opts[i] = &Repeat{Sub: Clone(sub), Min: 0, Max: 1}
				}
				tail = &Concat{Subs: opts}
			}
			return concatCopies(sub, t.Min, tail)
		default:
			return &Repeat{Sub: sub, Min: t.Min, Max: t.Max}
		}
	default:
		panic(fmt.Sprintf("regexast: unknown node %T", n))
	}
}

// concatCopies builds sub^count · tail.
func concatCopies(sub Node, count int, tail Node) Node {
	subs := make([]Node, 0, count+1)
	for i := 0; i < count; i++ {
		subs = append(subs, Clone(sub))
	}
	if tail != nil {
		subs = append(subs, tail)
	}
	return &Concat{Subs: subs}
}

// UnfoldAll fully unfolds every bounded repetition, producing the "basic
// NFA" form used by the RAP NFA mode and the baselines. It fails with
// ErrBudget when the unfolded expression would exceed maxStates Glushkov
// positions.
func UnfoldAll(n Node, maxStates int) (Node, error) {
	if UnfoldedStates(n) > maxStates {
		return nil, fmt.Errorf("%w: %d > %d", ErrBudget, UnfoldedStates(n), maxStates)
	}
	return Simplify(unfoldThreshold(n, int(^uint(0)>>1))), nil
}

// SplitMinMax rewrites every remaining bounded repetition r{m,n} into
// r{m}·r{0,n-m} (§4.1 "bounded repetition rewriting"), because the
// hardware supports only the r(m) and rAll read actions, and r{m,} into
// r{m}·r*. Exact repeats r{m} pass through. The pass is applied after
// UnfoldThreshold, so every Repeat it sees has bounds above the unfolding
// threshold.
func SplitMinMax(n Node) Node {
	return Simplify(splitMinMax(n))
}

func splitMinMax(n Node) Node {
	switch t := n.(type) {
	case Empty, *Lit:
		return n
	case *Concat:
		subs := make([]Node, len(t.Subs))
		for i, s := range t.Subs {
			subs[i] = splitMinMax(s)
		}
		return &Concat{Subs: subs}
	case *Alt:
		subs := make([]Node, len(t.Subs))
		for i, s := range t.Subs {
			subs[i] = splitMinMax(s)
		}
		return &Alt{Subs: subs}
	case *Repeat:
		sub := splitMinMax(t.Sub)
		switch {
		case t.Max == Unbounded && t.Min > 1:
			// r{m,} -> r{m} r*
			return &Concat{Subs: []Node{
				&Repeat{Sub: sub, Min: t.Min, Max: t.Min},
				&Repeat{Sub: Clone(sub), Min: 0, Max: Unbounded},
			}}
		case t.Max != Unbounded && t.Min != t.Max && t.Min > 0:
			// r{m,n} -> r{m} r{0,n-m}
			return &Concat{Subs: []Node{
				&Repeat{Sub: sub, Min: t.Min, Max: t.Min},
				&Repeat{Sub: Clone(sub), Min: 0, Max: t.Max - t.Min},
			}}
		default:
			return &Repeat{Sub: sub, Min: t.Min, Max: t.Max}
		}
	default:
		panic(fmt.Sprintf("regexast: unknown node %T", n))
	}
}

// Sequence is one LNFA string: a sequence of character classes executed
// with Shift-And (single initial state, single final state).
type Sequence []charclass.Class

// Linearize attempts the §4.2 rewriting: unfold bounded repetitions and
// distribute union over concatenation until the regex is a union of plain
// class sequences, each executable in LNFA mode. It fails with
// ErrNotLinear if the regex contains an unbounded repetition (not
// expressible as a line) and with ErrBudget if the total number of states
// across sequences would exceed budget states (callers pass 2x the
// original state count per Fig 9). Nullable regexes are rejected with
// ErrNotLinear: an empty sequence has no states to map.
func Linearize(n Node, budget int) ([]Sequence, error) {
	seqs, err := linearize(n, budget)
	if err != nil {
		return nil, err
	}
	seqs = dedupSequences(seqs)
	total := 0
	for _, s := range seqs {
		if len(s) == 0 {
			return nil, fmt.Errorf("%w: nullable pattern", ErrNotLinear)
		}
		total += len(s)
	}
	if total > budget {
		return nil, fmt.Errorf("%w: %d > %d", ErrBudget, total, budget)
	}
	return seqs, nil
}

// maxSequences caps alternation explosion independently of the state
// budget so that pathological inputs fail fast.
const maxSequences = 4096

func linearize(n Node, budget int) ([]Sequence, error) {
	switch t := n.(type) {
	case Empty:
		return []Sequence{{}}, nil
	case *Lit:
		return []Sequence{{t.Class}}, nil
	case *Alt:
		var out []Sequence
		for _, s := range t.Subs {
			seqs, err := linearize(s, budget)
			if err != nil {
				return nil, err
			}
			out = append(out, seqs...)
			if len(out) > maxSequences {
				return nil, fmt.Errorf("%w: >%d alternatives", ErrBudget, maxSequences)
			}
		}
		return out, nil
	case *Concat:
		out := []Sequence{{}}
		for _, s := range t.Subs {
			seqs, err := linearize(s, budget)
			if err != nil {
				return nil, err
			}
			if len(out)*len(seqs) > maxSequences {
				return nil, fmt.Errorf("%w: >%d alternatives", ErrBudget, maxSequences)
			}
			next := make([]Sequence, 0, len(out)*len(seqs))
			total := 0
			for _, a := range out {
				for _, b := range seqs {
					merged := make(Sequence, 0, len(a)+len(b))
					merged = append(merged, a...)
					merged = append(merged, b...)
					total += len(merged)
					if total > budget*4 {
						// The distributed form is already far past any
						// acceptable budget; abort before memory blowup.
						return nil, fmt.Errorf("%w: distribution blowup", ErrBudget)
					}
					next = append(next, merged)
				}
			}
			out = next
		}
		return out, nil
	case *Repeat:
		if t.Max == Unbounded {
			return nil, fmt.Errorf("%w: unbounded repetition", ErrNotLinear)
		}
		sub, err := linearize(t.Sub, budget)
		if err != nil {
			return nil, err
		}
		// r{m,n} = union over k in [m,n] of r^k.
		var out []Sequence
		for k := t.Min; k <= t.Max; k++ {
			reps, err := sequencePower(sub, k, budget)
			if err != nil {
				return nil, err
			}
			out = append(out, reps...)
			if len(out) > maxSequences {
				return nil, fmt.Errorf("%w: >%d alternatives", ErrBudget, maxSequences)
			}
		}
		return dedupSequences(out), nil
	default:
		panic(fmt.Sprintf("regexast: unknown node %T", n))
	}
}

// sequencePower computes the set of sequences for r^k given the set for r.
func sequencePower(base []Sequence, k, budget int) ([]Sequence, error) {
	out := []Sequence{{}}
	for i := 0; i < k; i++ {
		if len(out)*len(base) > maxSequences {
			return nil, fmt.Errorf("%w: >%d alternatives", ErrBudget, maxSequences)
		}
		next := make([]Sequence, 0, len(out)*len(base))
		for _, a := range out {
			for _, b := range base {
				merged := make(Sequence, 0, len(a)+len(b))
				merged = append(merged, a...)
				merged = append(merged, b...)
				if len(merged) > budget {
					return nil, fmt.Errorf("%w: sequence longer than budget", ErrBudget)
				}
				next = append(next, merged)
			}
		}
		out = next
	}
	return out, nil
}

func dedupSequences(seqs []Sequence) []Sequence {
	seen := make(map[string]bool, len(seqs))
	out := seqs[:0]
	for _, s := range seqs {
		key := sequenceKey(s)
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	return out
}

func sequenceKey(s Sequence) string {
	b := make([]byte, 0, len(s)*32)
	for _, c := range s {
		for _, w := range c {
			for i := 0; i < 8; i++ {
				b = append(b, byte(w>>(8*i)))
			}
		}
	}
	return string(b)
}
