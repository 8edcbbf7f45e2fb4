package prefilter

import (
	"fmt"

	"repro/internal/simdscan"
)

// Tier names the candidate-scanner representation a Set compiled to,
// exported on /metrics as the rap_prefilter_tier label.
type Tier int

const (
	// TierMemchr is the single-byte skip loop (bytes.IndexByte).
	TierMemchr Tier = iota
	// TierByteTable is the 256-entry membership table over single bytes.
	TierByteTable
	// TierTeddy is the word-at-a-time fingerprint scanner for multi-byte
	// literal sets up to simdscan.TeddyMaxLiterals.
	TierTeddy
	// TierAC is the dense Aho-Corasick DFA fallback.
	TierAC
)

func (t Tier) String() string {
	switch t {
	case TierMemchr:
		return "memchr"
	case TierByteTable:
		return "bytetable"
	case TierTeddy:
		return "teddy"
	default:
		return "ac"
	}
}

// Set is the compiled candidate scanner for the union of every
// prefiltered pattern's mandatory literals. It is immutable after
// NewSet and shared read-only by all streams, like the Machine it gates.
//
// Four representations, picked at compile time:
//   - one distinct single byte  -> memchr-style skip loop (bytes.IndexByte)
//   - all literals single bytes -> 256-entry membership table
//   - 1–32 multi-byte literals  -> Teddy fingerprint scanner (simdscan)
//   - anything else             -> dense Aho-Corasick DFA over the trie
type Set struct {
	window int // longest prefiltered pattern length, in states/bytes
	tier   Tier

	single    byte // memchr fast path when hasSingle
	hasSingle bool

	oneByte  bool // all literals are single bytes: table loop
	byteMask [256]bool

	// Teddy fingerprint scanner (TierTeddy). Its history requirement, one
	// byte less than the longest literal, is always met by the stream's
	// window-sized history because every literal fits the window.
	teddy *simdscan.Teddy

	// Aho-Corasick DFA: next[s][b] is the successor state, out[s] reports
	// a literal ending at s (directly or along the fail chain).
	next [][256]int32
	out  []bool
}

// NewSet compiles the candidate scanner. window is the longest
// prefiltered pattern length in bytes (>= 1); every literal must be
// non-empty and no longer than window.
func NewSet(lits [][]byte, window int) (*Set, error) {
	if err := checkSet(lits, window); err != nil {
		return nil, err
	}
	s := &Set{window: window}
	allOne := true
	for _, l := range lits {
		allOne = allOne && len(l) == 1
	}
	if allOne {
		s.oneByte = true
		distinct := 0
		for _, l := range lits {
			if !s.byteMask[l[0]] {
				s.byteMask[l[0]] = true
				distinct++
				s.single = l[0]
			}
		}
		s.hasSingle = distinct == 1
		s.tier = TierByteTable
		if s.hasSingle {
			s.tier = TierMemchr
		}
		return s, nil
	}
	// Multi-byte sets small enough for the fingerprint tier scan on the
	// block-at-a-time Teddy kernel; NewTeddy rejects sets with single-byte
	// literals or too many distinct literals, which fall through to AC.
	if t, err := simdscan.NewTeddy(lits); err == nil {
		s.teddy = t
		s.tier = TierTeddy
		return s, nil
	}
	s.buildAC(lits)
	s.tier = TierAC
	return s, nil
}

// NewSetAC compiles the literal set straight to the Aho-Corasick tier,
// bypassing tier selection. It is the baseline the fingerprint tier is
// benchmarked and differentially fuzzed against; production callers use
// NewSet.
func NewSetAC(lits [][]byte, window int) (*Set, error) {
	if err := checkSet(lits, window); err != nil {
		return nil, err
	}
	s := &Set{window: window, tier: TierAC}
	s.buildAC(lits)
	return s, nil
}

// checkSet is NewSet's and NewSetAC's check of a literal set: not empty,
// a window of at least one byte, and every literal non-empty and within it.
func checkSet(lits [][]byte, window int) error {
	if len(lits) == 0 {
		return fmt.Errorf("prefilter: empty literal set")
	}
	if window < 1 {
		return fmt.Errorf("prefilter: window %d < 1", window)
	}
	for _, l := range lits {
		if len(l) == 0 {
			return fmt.Errorf("prefilter: empty literal")
		}
		if len(l) > window {
			return fmt.Errorf("prefilter: literal %q longer than window %d", l, window)
		}
	}
	return nil
}

// Tier returns the candidate-scanner representation the set compiled to.
func (s *Set) Tier() Tier { return s.tier }

// Kernel names the candidate scan loop the set runs: the tier, or on the
// fingerprint tier the Teddy kernel the host runs (simdscan.Teddy.Kernel,
// e.g. "teddy fp3 avx2").
func (s *Set) Kernel() string {
	if s.teddy == nil {
		return s.tier.String()
	}
	return s.teddy.Kernel()
}

// buildAC constructs the goto trie, resolves fail links breadth-first and
// flattens everything into a dense DFA (next fully resolved, out folded
// along fail chains).
func (s *Set) buildAC(lits [][]byte) {
	type node struct {
		child [256]int32 // 0 = absent (state 0 is the root)
		out   bool
		fail  int32
	}
	nodes := []node{{}}
	for _, l := range lits {
		cur := int32(0)
		for _, b := range l {
			nxt := nodes[cur].child[b]
			if nxt == 0 {
				nodes = append(nodes, node{})
				nxt = int32(len(nodes) - 1)
				nodes[cur].child[b] = nxt
			}
			cur = nxt
		}
		nodes[cur].out = true
	}
	// BFS fail links; fold out bits so a hit at any suffix reports.
	queue := make([]int32, 0, len(nodes))
	for b := 0; b < 256; b++ {
		if c := nodes[0].child[b]; c != 0 {
			queue = append(queue, c)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for b := 0; b < 256; b++ {
			c := nodes[u].child[b]
			if c == 0 {
				continue
			}
			f := nodes[u].fail
			for f != 0 && nodes[f].child[b] == 0 {
				f = nodes[f].fail
			}
			nodes[c].fail = nodes[f].child[b] // root's missing edges are 0
			if nodes[c].fail == c {
				nodes[c].fail = 0
			}
			if nodes[nodes[c].fail].out {
				nodes[c].out = true
			}
			queue = append(queue, c)
		}
	}
	// Flatten to a DFA: missing edges follow the fail chain.
	s.next = make([][256]int32, len(nodes))
	s.out = make([]bool, len(nodes))
	for qi := -1; qi < len(queue); qi++ { // root first, then BFS order
		u := int32(0)
		if qi >= 0 {
			u = queue[qi]
		}
		s.out[u] = nodes[u].out
		for b := 0; b < 256; b++ {
			if c := nodes[u].child[b]; c != 0 {
				s.next[u][b] = c
			} else if u != 0 {
				s.next[u][b] = s.next[nodes[u].fail][b]
			}
		}
	}
}
