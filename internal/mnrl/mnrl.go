// Package mnrl reads and writes a compatible subset of MNRL ("My Network
// Regular Language"), the JSON automata interchange format of the
// VASim/ANMLZoo ecosystem that the RAP artifact ships its pre-compiled
// datasets in (appendix A.3.4: "the datasets are located under ./mnrl/").
//
// The subset covers homogeneous state networks (hState nodes), which is
// what AP-style processors execute: each node carries a symbol set
// (character class), an enable mode (all-input, start-of-data, or
// activate-on-input), a report flag, and activateOnMatch edges. This maps
// 1:1 onto internal/automata's homogeneous NFA, so compiled automata can
// be exported for other tools and ANMLZoo-style files can be imported.
package mnrl

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/automata"
	"repro/internal/charclass"
)

// Enable modes of an hState node.
const (
	EnableOnActivateIn       = "onActivateIn"
	EnableAlways             = "always"
	EnableOnStartAndActivate = "onStartAndActivateIn"
)

// Network is one MNRL automaton.
type Network struct {
	ID    string  `json:"id"`
	Nodes []*Node `json:"nodes"`
}

// Node is one MNRL node. Only hState nodes are produced/consumed.
type Node struct {
	ID              string            `json:"id"`
	Type            string            `json:"type"`
	Enable          string            `json:"enable"`
	Report          bool              `json:"report"`
	Attributes      map[string]string `json:"attributes,omitempty"`
	ActivateOnMatch []string          `json:"activateOnMatch"`
}

// SymbolSet returns the node's character class, parsed from the
// symbolSet attribute.
func (n *Node) SymbolSet() (charclass.Class, error) {
	s, ok := n.Attributes["symbolSet"]
	if !ok {
		return charclass.Class{}, fmt.Errorf("mnrl: node %s has no symbolSet", n.ID)
	}
	return parseSymbolSet(s)
}

// parseSymbolSet accepts the forms our encoder produces: ".", a single
// (possibly escaped) literal, or a bracket expression.
func parseSymbolSet(s string) (charclass.Class, error) {
	if s == "." {
		return charclass.Any(), nil
	}
	if len(s) >= 2 && s[0] == '[' && s[len(s)-1] == ']' {
		c, n, err := charclass.ParseClassBody(s[1:])
		if err != nil {
			return charclass.Class{}, err
		}
		if n != len(s)-2 {
			return charclass.Class{}, fmt.Errorf("mnrl: trailing junk in symbolSet %q", s)
		}
		return c, nil
	}
	switch {
	case len(s) == 1:
		return charclass.Single(s[0]), nil
	case len(s) == 2 && s[0] == '\\':
		// Escaped literal or class escape.
		c, n, err := charclass.ParseClassBody(s + "]")
		if err != nil || n != 2 {
			return charclass.Class{}, fmt.Errorf("mnrl: bad symbolSet %q", s)
		}
		return c, nil
	case len(s) == 4 && s[0] == '\\' && s[1] == 'x':
		c, n, err := charclass.ParseClassBody(s + "]")
		if err != nil || n != 4 {
			return charclass.Class{}, fmt.Errorf("mnrl: bad symbolSet %q", s)
		}
		return c, nil
	}
	return charclass.Class{}, fmt.Errorf("mnrl: unsupported symbolSet %q", s)
}

// FromNFA converts a homogeneous NFA into an MNRL network.
func FromNFA(id string, nfa *automata.NFA) *Network {
	net := &Network{ID: id}
	finals := map[int]bool{}
	for _, q := range nfa.Final {
		finals[q] = true
	}
	initials := map[int]bool{}
	for _, q := range nfa.Initial {
		initials[q] = true
	}
	for i, s := range nfa.States {
		node := &Node{
			ID:     fmt.Sprintf("q%d", i),
			Type:   "hState",
			Enable: EnableOnActivateIn,
			Report: finals[i],
			Attributes: map[string]string{
				"symbolSet": s.Class.String(),
			},
			ActivateOnMatch: []string{},
		}
		if initials[i] {
			if nfa.StartAnchored {
				node.Enable = EnableOnStartAndActivate
			} else {
				node.Enable = EnableAlways
			}
		}
		for _, succ := range s.Follow {
			node.ActivateOnMatch = append(node.ActivateOnMatch, fmt.Sprintf("q%d", succ))
		}
		net.Nodes = append(net.Nodes, node)
	}
	return net
}

// ToNFA converts an MNRL network back into a homogeneous NFA. Node order
// in the file defines state numbering.
func (net *Network) ToNFA() (*automata.NFA, error) {
	index := map[string]int{}
	for i, n := range net.Nodes {
		if n.Type != "hState" {
			return nil, fmt.Errorf("mnrl: unsupported node type %q (only hState)", n.Type)
		}
		if _, dup := index[n.ID]; dup {
			return nil, fmt.Errorf("mnrl: duplicate node id %q", n.ID)
		}
		index[n.ID] = i
	}
	nfa := &automata.NFA{States: make([]automata.State, len(net.Nodes))}
	for i, n := range net.Nodes {
		cls, err := n.SymbolSet()
		if err != nil {
			return nil, err
		}
		follow := make([]int, 0, len(n.ActivateOnMatch))
		for _, target := range n.ActivateOnMatch {
			q, ok := index[target]
			if !ok {
				return nil, fmt.Errorf("mnrl: node %s activates unknown node %q", n.ID, target)
			}
			follow = append(follow, q)
		}
		sort.Ints(follow)
		nfa.States[i] = automata.State{Class: cls, Follow: follow}
		switch n.Enable {
		case EnableAlways:
			nfa.Initial = append(nfa.Initial, i)
		case EnableOnStartAndActivate:
			nfa.Initial = append(nfa.Initial, i)
			nfa.StartAnchored = true
		case EnableOnActivateIn, "":
			// interior state
		default:
			return nil, fmt.Errorf("mnrl: unsupported enable mode %q", n.Enable)
		}
		if n.Report {
			nfa.Final = append(nfa.Final, i)
		}
	}
	if len(nfa.Final) == 0 {
		return nil, fmt.Errorf("mnrl: network %s has no reporting node", net.ID)
	}
	return nfa, nil
}

// File is a collection of networks, the on-disk form.
type File struct {
	Networks []*Network `json:"networks"`
}

// Write encodes the file as indented JSON.
func Write(w io.Writer, f *File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Read decodes a file.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("mnrl: %w", err)
	}
	for _, net := range f.Networks {
		if net == nil || slices.Contains(net.Nodes, nil) {
			return nil, fmt.Errorf("mnrl: null network or node")
		}
	}
	return &f, nil
}
