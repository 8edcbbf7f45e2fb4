package nbva

import (
	"errors"
	"fmt"
	"sort"

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
// (compiled to a BV-STE with rAll). Unbounded repetitions (*, +) become
// ordinary Glushkov loops. Anchors live on the regex, not the node: the
// caller sets the machine's StartAnchored / EndAnchored.
func ConstructFromNode(root regexast.Node) (*Machine, error) {
	b := &builder{m: &Machine{}, follow: map[int]map[int]bool{}}
	rootInfo, err := b.build(root)
	if err != nil {
		return nil, err
	}
	b.m.Initial = rootInfo.first
	b.m.Final = rootInfo.last
	b.m.MatchesEmpty = rootInfo.nullable
	for p, set := range b.follow {
		succ := make([]int, 0, len(set))
		for q := range set {
			succ = append(succ, q)
		}
		sort.Ints(succ)
		b.m.States[p].Follow = succ
	}
	return b.m, nil
}

type glushkovInfo struct {
	nullable bool
	first    []int
	last     []int
}

type builder struct {
	m      *Machine
	follow map[int]map[int]bool
}

func (b *builder) addFollow(p, q int) {
	set := b.follow[p]
	if set == nil {
		set = map[int]bool{}
		b.follow[p] = set
	}
	set[q] = true
}

func (b *builder) newState(s STE) int {
	b.m.States = append(b.m.States, s)
	return len(b.m.States) - 1
}

func (b *builder) build(n regexast.Node) (*glushkovInfo, error) {
	switch t := n.(type) {
	case regexast.Empty:
		return &glushkovInfo{nullable: true}, nil
	case *regexast.Lit:
		q := b.newState(STE{Class: t.Class})
		return &glushkovInfo{first: []int{q}, last: []int{q}}, nil
	case *regexast.Concat:
		cur := &glushkovInfo{nullable: true}
		for _, s := range t.Subs {
			si, err := b.build(s)
			if err != nil {
				return nil, err
			}
			for _, p := range cur.last {
				for _, q := range si.first {
					b.addFollow(p, q)
				}
			}
			next := &glushkovInfo{nullable: cur.nullable && si.nullable}
			if cur.nullable {
				next.first = mergeSorted(cur.first, si.first)
			} else {
				next.first = cur.first
			}
			if si.nullable {
				next.last = mergeSorted(cur.last, si.last)
			} else {
				next.last = si.last
			}
			cur = next
		}
		return cur, nil
	case *regexast.Alt:
		out := &glushkovInfo{}
		for _, s := range t.Subs {
			si, err := b.build(s)
			if err != nil {
				return nil, err
			}
			out.nullable = out.nullable || si.nullable
			out.first = mergeSorted(out.first, si.first)
			out.last = mergeSorted(out.last, si.last)
		}
		return out, nil
	case *regexast.Repeat:
		return b.buildRepeat(t)
	default:
		return nil, fmt.Errorf("nbva: unknown node %T", n)
	}
}

func (b *builder) buildRepeat(t *regexast.Repeat) (*glushkovInfo, error) {
	// Unbounded repetitions are Glushkov loops.
	if t.Max == regexast.Unbounded {
		if t.Min > 1 {
			return nil, fmt.Errorf("%w: r{%d,} must be split into r{%d}r* first", ErrNotCompilable, t.Min, t.Min)
		}
		si, err := b.build(t.Sub)
		if err != nil {
			return nil, err
		}
		for _, p := range si.last {
			for _, q := range si.first {
				b.addFollow(p, q)
			}
		}
		return &glushkovInfo{nullable: si.nullable || t.Min == 0, first: si.first, last: si.last}, nil
	}
	// r? over anything is plain Glushkov optionality.
	if t.Min == 0 && t.Max == 1 {
		si, err := b.build(t.Sub)
		if err != nil {
			return nil, err
		}
		return &glushkovInfo{nullable: true, first: si.first, last: si.last}, nil
	}
	lit, ok := t.Sub.(*regexast.Lit)
	if !ok {
		return nil, fmt.Errorf("%w: {%d,%d} over %T", ErrNotCompilable, t.Min, t.Max, t.Sub)
	}
	switch {
	case t.Min == t.Max && t.Min >= 2:
		// σ{m} -> BV-STE with r(m).
		q := b.newState(STE{Class: lit.Class, BV: &BVSpec{Size: t.Min, Read: ReadExact}})
		return &glushkovInfo{first: []int{q}, last: []int{q}}, nil
	case t.Min == 0 && t.Max >= 1:
		// σ{0,k} -> nullable BV-STE with rAll.
		q := b.newState(STE{Class: lit.Class, BV: &BVSpec{Size: t.Max, Read: ReadAll}})
		return &glushkovInfo{nullable: true, first: []int{q}, last: []int{q}}, nil
	case t.Min == t.Max && t.Min == 1:
		q := b.newState(STE{Class: lit.Class})
		return &glushkovInfo{first: []int{q}, last: []int{q}}, nil
	default:
		return nil, fmt.Errorf("%w: σ{%d,%d} must be split into σ{%d}σ{0,%d} first",
			ErrNotCompilable, t.Min, t.Max, t.Min, t.Max-t.Min)
	}
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
