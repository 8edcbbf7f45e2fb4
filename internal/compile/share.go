package compile

import (
	"fmt"
	"sort"

	"repro/internal/automata"
	"repro/internal/charclass"
	"repro/internal/regexast"
)

// Prefix sharing: AP-ecosystem compilers (VASim, the AP SDK) merge the
// common literal prefixes of NFA rule sets into a trie so that thousands
// of rules starting with the same tokens share STEs. RAP inherits the
// optimization in NFA mode; ShareNFAPrefixes applies it to a compile
// result and the ablation experiment quantifies the STE savings.

// ShareNFAPrefixes returns a new Result where the NFA-mode regexes are
// regrouped into shared-prefix union automata, each within the per-array
// state capacity. NBVA- and LNFA-mode regexes pass through unchanged.
// Match semantics are preserved exactly: every original final state still
// reports at the same offsets.
func ShareNFAPrefixes(res *Result, opts Options) (*Result, error) {
	opts.setDefaults()
	out := &Result{Errors: res.Errors}
	var nfaRegexes []*Compiled
	for i := range res.Regexes {
		c := &res.Regexes[i]
		if c.Source == "" {
			continue
		}
		if c.Mode == ModeNFA && c.NFA != nil && !c.NFA.StartAnchored && !c.NFA.EndAnchored {
			nfaRegexes = append(nfaRegexes, c)
			continue
		}
		// Anchored NFAs keep their own automaton (their initial states
		// have a different enable mode); other modes pass through.
		cc := *c
		cc.Index = len(out.Regexes)
		out.Regexes = append(out.Regexes, cc)
	}
	groups, err := groupForSharing(nfaRegexes, opts.MaxNFAStates)
	if err != nil {
		return nil, err
	}
	for gi, g := range groups {
		union, err := buildSharedNFA(g)
		if err != nil {
			return nil, err
		}
		out.Regexes = append(out.Regexes, Compiled{
			Index:         len(out.Regexes),
			Source:        fmt.Sprintf("shared-nfa-group-%d (%d regexes)", gi, len(g)),
			Mode:          ModeNFA,
			NFA:           union,
			STEs:          union.NumStates(),
			UnfoldedSTEs:  union.NumStates(),
			DecisionTrail: "prefix-shared NFA group",
		})
	}
	return out, nil
}

// sharedEntry is one regex split into its shareable literal prefix and
// the remainder automaton.
type sharedEntry struct {
	prefix []charclass.Class
	rest   regexast.Node // nil when the whole regex is the prefix
	c      *Compiled
}

// splitPrefix extracts the maximal leading chain of literal classes from
// an unanchored regex.
func splitPrefix(c *Compiled) (sharedEntry, error) {
	re, err := regexast.Parse(c.Source)
	if err != nil {
		return sharedEntry{}, err
	}
	e := sharedEntry{c: c}
	if re.StartAnchored || re.EndAnchored {
		// Anchored regexes keep their own automaton (enable-mode differs).
		e.rest = re.Root
		return e, nil
	}
	root := regexast.Simplify(re.Root)
	switch t := root.(type) {
	case *regexast.Lit:
		e.prefix = []charclass.Class{t.Class}
	case *regexast.Concat:
		i := 0
		for i < len(t.Subs) {
			lit, ok := t.Subs[i].(*regexast.Lit)
			if !ok {
				break
			}
			e.prefix = append(e.prefix, lit.Class)
			i++
		}
		if i < len(t.Subs) {
			rest := t.Subs[i:]
			if len(rest) == 1 {
				e.rest = rest[0]
			} else {
				e.rest = &regexast.Concat{Subs: rest}
			}
		}
	default:
		e.rest = root
	}
	return e, nil
}

// groupForSharing sorts regexes by source (clustering shared prefixes)
// and greedily packs them into groups whose worst-case union size fits
// the capacity.
func groupForSharing(regexes []*Compiled, maxStates int) ([][]*Compiled, error) {
	sorted := append([]*Compiled(nil), regexes...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Source < sorted[j].Source })
	var groups [][]*Compiled
	var cur []*Compiled
	size := 0
	for _, c := range sorted {
		if c.STEs > maxStates {
			return nil, fmt.Errorf("compile: regex %q exceeds capacity alone", c.Source)
		}
		if size+c.STEs > maxStates && len(cur) > 0 {
			groups = append(groups, cur)
			cur, size = nil, 0
		}
		cur = append(cur, c)
		size += c.STEs
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups, nil
}

// buildSharedNFA merges a group into one homogeneous NFA with a shared
// prefix trie.
func buildSharedNFA(group []*Compiled) (*automata.NFA, error) {
	union := &automata.NFA{}
	type trieNode struct {
		class    charclass.Class
		state    int
		children map[charclass.Class]*trieNode
	}
	root := &trieNode{children: map[charclass.Class]*trieNode{}}
	newState := func(cls charclass.Class) int {
		union.States = append(union.States, automata.State{Class: cls})
		return len(union.States) - 1
	}
	addFollow := func(p, q int) {
		for _, f := range union.States[p].Follow {
			if f == q {
				return
			}
		}
		union.States[p].Follow = append(union.States[p].Follow, q)
	}
	initialSet := map[int]bool{}
	finalSet := map[int]bool{}

	for _, c := range group {
		e, err := splitPrefix(c)
		if err != nil {
			return nil, err
		}
		// Walk/extend the trie along the prefix. For literal-only regexes
		// the final element gets a private (unshared) state so that
		// duplicate patterns still produce one report each.
		shared := e.prefix
		if e.rest == nil && len(shared) > 0 {
			shared = shared[:len(shared)-1]
		}
		node := root
		for _, cls := range shared {
			child := node.children[cls]
			if child == nil {
				child = &trieNode{
					class:    cls,
					state:    newState(cls),
					children: map[charclass.Class]*trieNode{},
				}
				node.children[cls] = child
				if node != root {
					addFollow(node.state, child.state)
				} else {
					initialSet[child.state] = true
				}
			}
			node = child
		}
		if e.rest == nil {
			// Whole regex is the literal chain; the last state is private.
			if len(e.prefix) == 0 {
				union.MatchesEmpty = true
				continue
			}
			last := newState(e.prefix[len(e.prefix)-1])
			if node == root {
				initialSet[last] = true
			} else {
				addFollow(node.state, last)
			}
			finalSet[last] = true
			continue
		}
		// Build the remainder automaton and graft it on.
		restNFA, err := automata.Glushkov(&regexast.Regex{Root: e.rest}, automata.DefaultMaxStates)
		if err != nil {
			return nil, err
		}
		offset := len(union.States)
		for _, s := range restNFA.States {
			newState(s.Class)
		}
		for q, s := range restNFA.States {
			for _, succ := range s.Follow {
				addFollow(offset+q, offset+succ)
			}
		}
		for _, q := range restNFA.Initial {
			if node == root {
				initialSet[offset+q] = true
			} else {
				addFollow(node.state, offset+q)
			}
		}
		for _, q := range restNFA.Final {
			finalSet[offset+q] = true
		}
		if restNFA.MatchesEmpty {
			if node == root {
				union.MatchesEmpty = true
			} else {
				finalSet[node.state] = true
			}
		}
	}
	union.Initial = sortedKeys(initialSet)
	union.Final = sortedKeys(finalSet)
	for i := range union.States {
		sort.Ints(union.States[i].Follow)
	}
	return union, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
