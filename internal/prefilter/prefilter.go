// Package prefilter implements the literal prefilter of the fast-path scan
// engine: a compile-time analysis that extracts mandatory literals per
// pattern (internal/regexast), a multi-literal candidate scanner (a
// memchr-style skip loop for single-byte sets, an Aho-Corasick DFA for
// multi-literal sets), and a streaming window executor that turns literal
// hits into the byte ranges the match automaton actually has to consume.
//
// Soundness rests on two facts. First, the literal sets are mandatory:
// every string a prefiltered pattern matches contains at least one set
// literal as a substring (regexast.MandatoryLiterals). Second, the
// prefiltered patterns are linear: a pattern of L states matches exactly
// L consecutive bytes, so a match ending at e spans [e-L+1, e] and any of
// its literal occurrences ends inside that span. A literal hit ending at
// stream offset t therefore covers every match containing it with the
// single window [t-W+1, t+W-1], W being the longest pattern length — and
// a Shift-And automaton reset at a window start loses only matches that
// start earlier, which some other window necessarily covers.
package prefilter

import (
	"fmt"

	"repro/internal/regexast"
)

// Verdict is the compile-time prefilter decision for one pattern, printed
// by `rapc -explain` and exposed per program by the service.
type Verdict struct {
	// Prefilterable reports whether the pattern runs behind the literal
	// prefilter (true) or on the always-on scan path (false).
	Prefilterable bool `json:"prefilterable"`
	// Literals holds the mandatory literal set (escaped, human-readable)
	// when Prefilterable.
	Literals []string `json:"literals,omitempty"`
	// Reason names the fallback cause when not Prefilterable.
	Reason string `json:"reason,omitempty"`
	// Tier names the candidate-scanner tier of the compiled literal union
	// (memchr, bytetable, teddy, ac). Set once the program's literal Set is
	// built — it depends on every prefiltered pattern, not this one alone.
	Tier string `json:"tier,omitempty"`
}

func (v Verdict) String() string {
	if v.Prefilterable {
		return fmt.Sprintf("prefilter %v", v.Literals)
	}
	return "always-on: " + v.Reason
}

// Analyze runs the mandatory-literal analysis on one parsed pattern and
// returns the raw literal set alongside the reportable verdict. A nil
// literal set means the pattern must stay always-on.
func Analyze(root regexast.Node) ([][]byte, Verdict) {
	lits, reason := regexast.MandatoryLiterals(root, regexast.DefaultLiteralCaps)
	if reason != "" {
		return nil, Verdict{Prefilterable: false, Reason: reason}
	}
	v := Verdict{Prefilterable: true, Literals: make([]string, len(lits))}
	for i, l := range lits {
		v.Literals[i] = fmt.Sprintf("%q", l)
	}
	return lits, v
}

// Stats counts prefilter effectiveness over one stream. Scanned and
// Skipped partition the chunk bytes seen so far (replayed history bytes
// count toward Scanned, so the two may sum slightly above the stream
// length when windows reach back across a park gap).
type Stats struct {
	ScannedBytes int64 `json:"scanned_bytes"` // bytes the automaton consumed
	SkippedBytes int64 `json:"skipped_bytes"` // bytes only the literal scanner saw
	LiteralHits  int64 `json:"literal_hits"`
	Windows      int64 `json:"windows"`   // merged candidate windows delivered
	WindowNS     int64 `json:"window_ns"` // time locating candidate windows
	// DirtyBlocks is simdscan.TeddyState.DirtyBlocks: 16-byte blocks the
	// Teddy kernel could not clear without an exact look (what that means
	// depends on the kernel, Set.Kernel). Zero off the fingerprint tier.
	DirtyBlocks int64 `json:"dirty_blocks"`
}

// Sub returns s - o (for delta accounting against a prior snapshot).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ScannedBytes: s.ScannedBytes - o.ScannedBytes,
		SkippedBytes: s.SkippedBytes - o.SkippedBytes,
		LiteralHits:  s.LiteralHits - o.LiteralHits,
		Windows:      s.Windows - o.Windows,
		WindowNS:     s.WindowNS - o.WindowNS,
		DirtyBlocks:  s.DirtyBlocks - o.DirtyBlocks,
	}
}
