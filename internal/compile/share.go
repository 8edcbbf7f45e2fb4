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
//
// The trie is a rewrite of the regex tree: a group's patterns are
// left-factored into one alternation (abc, abd and ax* become
// a(b(c|d)|x*)), and the one Glushkov construction builds its automaton.

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
		if c.Mode == ModeNFA && c.AST != nil && !c.AST.StartAnchored && !c.AST.EndAnchored {
			nfaRegexes = append(nfaRegexes, c)
			continue
		}
		// Anchored NFAs keep their own automaton (their initial states
		// have a different enable mode), so do imported ones (they have
		// no regex to factor); other modes pass through.
		cc := *c
		cc.Index = len(out.Regexes)
		out.Regexes = append(out.Regexes, cc)
	}
	groups, err := groupForSharing(nfaRegexes, opts.MaxNFAStates)
	if err != nil {
		return nil, err
	}
	for gi, g := range groups {
		root := newTrie()
		for _, c := range g {
			prefix, tail := splitPrefix(c.AST.Root)
			n := root
			for _, cls := range prefix {
				n = n.child(cls)
			}
			n.alt.Subs = append(n.alt.Subs, tail)
		}
		union, err := automata.Glushkov(&regexast.Regex{Root: root.alt}, opts.MaxNFAStates)
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

// splitPrefix splits a parsed regex tree into the leading literal classes
// it may share with its group and its tail. A class after which the regex
// can match stays in the tail: a final state belongs to one regex alone,
// so duplicates, or ab? beside ac*, still report once each.
func splitPrefix(root regexast.Node) ([]charclass.Class, regexast.Node) {
	subs := []regexast.Node{root}
	if c, ok := root.(*regexast.Concat); ok {
		subs = c.Subs
	}
	i := 0
	for i < len(subs) {
		if _, ok := subs[i].(*regexast.Lit); !ok {
			break
		}
		i++
	}
	if i > 0 && regexast.Nullable(&regexast.Concat{Subs: subs[i:]}) {
		i--
	}
	prefix := make([]charclass.Class, i)
	for j := range prefix {
		prefix[j] = subs[j].(*regexast.Lit).Class
	}
	if i == len(subs)-1 {
		return prefix, subs[i]
	}
	return prefix, &regexast.Concat{Subs: subs[i:]}
}

// trie is one node of a group's left-factored regex tree. alt holds what
// follows the node's class, in insertion order: a child's
// Concat{Lit, child.alt} or a member's tail.
type trie struct {
	alt  *regexast.Alt
	kids map[charclass.Class]*trie
}

func newTrie() *trie { return &trie{alt: &regexast.Alt{}, kids: map[charclass.Class]*trie{}} }

// child returns the node below n for cls, adding it as n's next
// alternative when n has none.
func (n *trie) child(cls charclass.Class) *trie {
	k := n.kids[cls]
	if k == nil {
		k = newTrie()
		n.kids[cls] = k
		n.alt.Subs = append(n.alt.Subs, &regexast.Concat{Subs: []regexast.Node{&regexast.Lit{Class: cls}, k.alt}})
	}
	return k
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
