package mnrl

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/regexast"
	"repro/internal/workload"
)

func nfaOf(t testing.TB, pattern string) *automata.NFA {
	t.Helper()
	nfa, err := automata.Glushkov(regexast.MustParse(pattern), 0)
	if err != nil {
		t.Fatal(err)
	}
	return nfa
}

func TestFromNFAStructure(t *testing.T) {
	nfa := nfaOf(t, "a([bc]|b.*d)")
	net := FromNFA("ex21", nfa)
	if len(net.Nodes) != 5 {
		t.Fatalf("nodes = %d", len(net.Nodes))
	}
	if net.Nodes[0].Enable != EnableAlways {
		t.Errorf("q0 enable = %s", net.Nodes[0].Enable)
	}
	if net.Nodes[1].Enable != EnableOnActivateIn {
		t.Errorf("q1 enable = %s", net.Nodes[1].Enable)
	}
	reports := 0
	for _, n := range net.Nodes {
		if n.Report {
			reports++
		}
	}
	if reports != 2 {
		t.Errorf("reporting nodes = %d", reports)
	}
}

func TestAnchoredEnableMode(t *testing.T) {
	nfa := nfaOf(t, "^abc")
	net := FromNFA("anch", nfa)
	if net.Nodes[0].Enable != EnableOnStartAndActivate {
		t.Errorf("enable = %s", net.Nodes[0].Enable)
	}
	back, err := net.ToNFA()
	if err != nil {
		t.Fatal(err)
	}
	if !back.StartAnchored {
		t.Error("anchoring lost")
	}
}

func TestRoundTripBehaviour(t *testing.T) {
	patterns := []string{
		"abc", "a([bc]|b.*d)", "a(b|c)*d", "[a-z]+@[a-z]+", "x.y.z",
		"\\d\\d\\d", "a[^b]c",
	}
	r := rand.New(rand.NewSource(17))
	for _, p := range patterns {
		orig := nfaOf(t, p)
		net := FromNFA(p, orig)
		back, err := net.ToNFA()
		if err != nil {
			t.Fatalf("%q: %v", p, err)
		}
		if back.NumStates() != orig.NumStates() {
			t.Fatalf("%q: state count changed", p)
		}
		for rep := 0; rep < 30; rep++ {
			input := make([]byte, r.Intn(16))
			for i := range input {
				input[i] = byte('a' + r.Intn(26))
			}
			a := orig.MatchEnds(input)
			b := back.MatchEnds(input)
			if len(a) != len(b) {
				t.Fatalf("%q input %q: %v vs %v", p, input, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%q input %q: %v vs %v", p, input, a, b)
				}
			}
		}
	}
}

func TestFileSerialization(t *testing.T) {
	f := &File{}
	for _, p := range []string{"abc", "x(y|z)w"} {
		f.Networks = append(f.Networks, FromNFA(p, nfaOf(t, p)))
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hState") {
		t.Error("missing hState in output")
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Networks) != 2 {
		t.Fatalf("networks = %d", len(back.Networks))
	}
	if _, err := back.Networks[0].ToNFA(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`{"networks":[{"id":"x","nodes":[{"id":"a","type":"upCounter","enable":"always","report":true,"activateOnMatch":[]}]}]}`,
		`{"networks":[{"id":"x","nodes":[{"id":"a","type":"hState","enable":"always","report":true,"attributes":{"symbolSet":"a"},"activateOnMatch":["nope"]}]}]}`,
		`{"networks":[{"id":"x","nodes":[{"id":"a","type":"hState","enable":"weird","report":true,"attributes":{"symbolSet":"a"},"activateOnMatch":[]}]}]}`,
		`{"networks":[{"id":"x","nodes":[{"id":"a","type":"hState","enable":"always","report":false,"attributes":{"symbolSet":"a"},"activateOnMatch":[]}]}]}`,
		`{"networks":[{"id":"x","nodes":[{"id":"a","type":"hState","enable":"always","report":true,"activateOnMatch":[]}]}]}`,
		`{"networks":[{"id":"x","nodes":[{"id":"a","type":"hState","enable":"always","report":true,"attributes":{"symbolSet":"a"},"activateOnMatch":[]},{"id":"a","type":"hState","enable":"always","report":true,"attributes":{"symbolSet":"a"},"activateOnMatch":[]}]}]}`,
	}
	for i, src := range cases {
		f, err := Read(strings.NewReader(src))
		if err != nil {
			continue // malformed JSON counts as an error too
		}
		if _, err := f.Networks[0].ToNFA(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestWorkloadExportImport(t *testing.T) {
	// Export a whole synthetic dataset (as basic NFAs) and re-import it.
	d := workload.MustGenerate("Snort", 0.1, 3)
	f := &File{}
	for _, p := range d.Patterns {
		re, err := regexast.Parse(p)
		if err != nil {
			t.Fatal(err)
		}
		nfa, err := automata.Glushkov(re, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Networks = append(f.Networks, FromNFA(p, nfa))
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	input := d.Input(2000, 1)
	for i, net := range back.Networks {
		nfa, err := net.ToNFA()
		if err != nil {
			t.Fatalf("network %d: %v", i, err)
		}
		orig, _ := automata.Glushkov(regexast.MustParse(d.Patterns[i]), 0)
		if !reflect.DeepEqual(nfa.MatchEnds(input), orig.MatchEnds(input)) {
			t.Errorf("pattern %q: behaviour changed through MNRL", d.Patterns[i])
		}
	}
}

func TestSymbolSetForms(t *testing.T) {
	for _, s := range []string{".", "a", "\\n", "\\x41", "[a-z]", "[^ab]", "\\d"} {
		if _, err := parseSymbolSet(s); err != nil {
			t.Errorf("parseSymbolSet(%q): %v", s, err)
		}
	}
	for _, s := range []string{"", "ab", "[a-z", "[]"} {
		if _, err := parseSymbolSet(s); err == nil {
			t.Errorf("parseSymbolSet(%q): expected error", s)
		}
	}
}
