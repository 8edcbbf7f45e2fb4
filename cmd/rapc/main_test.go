package main

import (
	"strings"
	"testing"

	"repro/internal/simdscan"
)

// TestExplainGolden pins -explain on a ruleset whose rows only make sense
// as a set: two literals share one teddy scanner (alone, each would sit
// behind its own), five DFA patterns share one wake loop, and the pattern
// that does not compile keeps its row without costing the others theirs.
// The teddy kernel is the host's, so there is a golden for each, and each
// the host has is checked.
func TestExplainGolden(t *testing.T) {
	defer func(host bool) { simdscan.UseAVX2 = host }(simdscan.UseAVX2)
	goldens := map[bool]string{false: explainPortable}
	if simdscan.UseAVX2 {
		goldens[true] = explainAVX2
	}
	for avx2, want := range goldens {
		simdscan.UseAVX2 = avx2
		testExplainGolden(t, want)
	}
}

func testExplainGolden(t *testing.T, want string) {
	patterns := []string{"ab{20,48}c", "cat", "a(b|c)*d", "a(", ".key07.", "b(x|y)*c", "c(x|y)*d", "d(x|y)*e", "e(x|y)*f"}
	var out strings.Builder
	if err := explainPrefilter(&out, patterns); err != nil {
		t.Fatal(err)
	}
	// The table pads every cell to its column; the golden does not.
	var got strings.Builder
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		got.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	if got.String() != want {
		t.Errorf("rapc -explain:\n%s\nwant:\n%s", got.String(), want)
	}
}

const explainPortable = `== Fast-path verdicts (software reference matcher) ==
#  Pattern     Engine  Kernel                                Fast path
-  ----------  ------  ------------------------------------  ------------------------------------------------------
0  ab{20,48}c  nbva    word64 memchr (4 states, 48 BV bits)  always-on: engine nbva is always-on
1  cat         dfa     dfa-union behind teddy fp3            prefilter ["cat"]
2  a(b|c)*d    dfa     dfa-table                             always-on: engine dfa is always-on
3  a(          ERROR                                         pattern 0 "a(": regexast: parse "a(" at 2: missing ')'
4  .key07.     dfa     dfa-union behind teddy fp3            prefilter ["key07"]
5  b(x|y)*c    dfa     dfa-table                             always-on: engine dfa is always-on
6  c(x|y)*d    dfa     dfa-table                             always-on: engine dfa is always-on
7  d(x|y)*e    dfa     dfa-table                             always-on: engine dfa is always-on
8  e(x|y)*f    dfa     dfa-table                             always-on: engine dfa is always-on
`

const explainAVX2 = `== Fast-path verdicts (software reference matcher) ==
#  Pattern     Engine  Kernel                                Fast path
-  ----------  ------  ------------------------------------  ------------------------------------------------------
0  ab{20,48}c  nbva    word64 memchr (4 states, 48 BV bits)  always-on: engine nbva is always-on
1  cat         dfa     dfa-union behind teddy fp3 avx2       prefilter ["cat"]
2  a(b|c)*d    dfa     dfa-table                             always-on: engine dfa is always-on
3  a(          ERROR                                         pattern 0 "a(": regexast: parse "a(" at 2: missing ')'
4  .key07.     dfa     dfa-union behind teddy fp3 avx2       prefilter ["key07"]
5  b(x|y)*c    dfa     dfa-table                             always-on: engine dfa is always-on
6  c(x|y)*d    dfa     dfa-table                             always-on: engine dfa is always-on
7  d(x|y)*e    dfa     dfa-table                             always-on: engine dfa is always-on
8  e(x|y)*f    dfa     dfa-table                             always-on: engine dfa is always-on
`

// TestAnalyzeDFAColumn pins -analyze's DFA column: an exact count, a
// start-anchored and an end-anchored pattern, one past the 50 000 cap,
// and a pattern that does not parse.
func TestAnalyzeDFAColumn(t *testing.T) {
	for pattern, want := range map[string]string{
		"abc":      "4",
		"a(b|c)*d": "5",
		"a.{14}":   "32768",
		"a.{15}":   ">50000",
		"^ab+c":    "5",
		"x.*y$":    "5",
		"a(":       "-",
	} {
		if got := dfaCell(pattern); got != want {
			t.Errorf("dfaCell(%q) = %q, want %q", pattern, got, want)
		}
	}
}
