package regexast

import (
	"strings"
	"testing"

	"repro/internal/charclass"
)

func TestParseBasicShapes(t *testing.T) {
	cases := []struct {
		pattern string
		states  int
	}{
		{"a", 1},
		{"abc", 3},
		{"a|b", 2},
		{"a(b|c)d", 4},
		{"a[bc].d?", 4},
		{"a.*bc{5}", 4},
		{"a(.a){3}b", 4},
		{"(ab)+c", 3},
		{"", 0},
	}
	for _, tc := range cases {
		re, err := Parse(tc.pattern)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.pattern, err)
			continue
		}
		if got := re.Root.States(); got != tc.states {
			t.Errorf("Parse(%q).States() = %d, want %d", tc.pattern, got, tc.states)
		}
	}
}

func TestParseAnchors(t *testing.T) {
	re := MustParse("^abc$")
	if !re.StartAnchored || !re.EndAnchored {
		t.Error("anchors not detected")
	}
	if re.Root.States() != 3 {
		t.Errorf("States = %d", re.Root.States())
	}
	re = MustParse("abc")
	if re.StartAnchored || re.EndAnchored {
		t.Error("spurious anchors")
	}
}

func TestParseQuantifiers(t *testing.T) {
	re := MustParse("a{2,5}")
	rep, ok := re.Root.(*Repeat)
	if !ok || rep.Min != 2 || rep.Max != 5 {
		t.Fatalf("a{2,5} parsed as %T %+v", re.Root, re.Root)
	}
	re = MustParse("a{3}")
	rep = re.Root.(*Repeat)
	if rep.Min != 3 || rep.Max != 3 {
		t.Fatalf("a{3}: %+v", rep)
	}
	re = MustParse("a{4,}")
	rep = re.Root.(*Repeat)
	if rep.Min != 4 || rep.Max != Unbounded {
		t.Fatalf("a{4,}: %+v", rep)
	}
	re = MustParse("a*")
	rep = re.Root.(*Repeat)
	if rep.Min != 0 || rep.Max != Unbounded {
		t.Fatalf("a*: %+v", rep)
	}
	re = MustParse("a+")
	rep = re.Root.(*Repeat)
	if rep.Min != 1 || rep.Max != Unbounded {
		t.Fatalf("a+: %+v", rep)
	}
}

func TestParseLiteralBrace(t *testing.T) {
	// '{' not followed by a valid bound is a literal, PCRE-style.
	re := MustParse("a{x}")
	if re.Root.States() != 4 {
		t.Errorf("a{x} should be 4 literal states, got %d", re.Root.States())
	}
}

func TestParseClassAtoms(t *testing.T) {
	re := MustParse("[a-c]")
	lit := re.Root.(*Lit)
	if lit.Class.Count() != 3 {
		t.Errorf("[a-c] count = %d", lit.Class.Count())
	}
	re = MustParse("\\d\\w\\s")
	if re.Root.States() != 3 {
		t.Error("escape classes broken")
	}
	re = MustParse(".")
	if !re.Root.(*Lit).Class.IsAny() {
		t.Error(". should be Any")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")", "a)", "(a", "*a", "+", "?", "[", "[]", "a{3,1}", "\\", "a(?=b)", "a^b", "a$b"}
	for _, p := range bad {
		if _, err := Parse(p); err == nil {
			t.Errorf("Parse(%q): expected error", p)
		}
	}
}

func TestParseNonCapturingGroup(t *testing.T) {
	re := MustParse("(?:ab)+")
	if re.Root.States() != 2 {
		t.Errorf("(?:ab)+ states = %d", re.Root.States())
	}
}

func TestStringRoundTrip(t *testing.T) {
	patterns := []string{
		"abc", "a|b|c", "a(b|c)d", "a[bc].d?", "a.*bc{5}",
		"a(.a){3}b", "ab{10,48}cd{34}ef{128}", "b(a{7}|c{5})b",
		"\\d{3}-\\d{4}", "[a-z]+@[a-z]+\\.(com|org)",
	}
	for _, p := range patterns {
		re := MustParse(p)
		s := String(re.Root)
		re2, err := Parse(s)
		if err != nil {
			t.Errorf("re-parse of String(%q) = %q failed: %v", p, s, err)
			continue
		}
		if String(re2.Root) != s {
			t.Errorf("unstable print: %q -> %q -> %q", p, s, String(re2.Root))
		}
		if re2.Root.States() != re.Root.States() {
			t.Errorf("state count changed in round trip of %q", p)
		}
	}
}

func TestUnfoldedStates(t *testing.T) {
	cases := []struct {
		pattern string
		want    int
	}{
		{"a{5}", 5},
		{"a{2,5}", 5},
		{"(ab){3}", 6},
		{"a{10,}", 11}, // unfolds to a^10 a* per §4.1
		{"a*", 1},
		{"abc", 3},
		{"a{1024}bc{0,16}", 1041},
	}
	for _, tc := range cases {
		re := MustParse(tc.pattern)
		if got := UnfoldedStates(re.Root); got != tc.want {
			t.Errorf("UnfoldedStates(%q) = %d, want %d", tc.pattern, got, tc.want)
		}
	}
}

func TestNullable(t *testing.T) {
	cases := []struct {
		pattern string
		want    bool
	}{
		{"", true}, {"a*", true}, {"a?", true}, {"a", false},
		{"a|b*", true}, {"ab*", false}, {"(a|b?)(c*)", true},
		{"a{0,3}", true}, {"a{1,3}", false},
	}
	for _, tc := range cases {
		re := MustParse(tc.pattern)
		if got := Nullable(re.Root); got != tc.want {
			t.Errorf("Nullable(%q) = %v, want %v", tc.pattern, got, tc.want)
		}
	}
}

func TestFeatureQueries(t *testing.T) {
	// A bound above 1 is the construct NBVA mode exists for; b* has no
	// finite bound and a? is a repeat but not what NBVA targets.
	for _, tc := range []struct {
		pattern string
		bound   int
	}{{"ab{10,48}c", 48}, {"ab{7,}c", 7}, {"ab*c", 0}, {"ab?c", 1}} {
		if got := MaxRepeatBound(MustParse(tc.pattern).Root); got != tc.bound {
			t.Errorf("MaxRepeatBound(%q) = %d, want %d", tc.pattern, got, tc.bound)
		}
	}
}

func TestSimplifyFlattens(t *testing.T) {
	n := &Concat{Subs: []Node{
		&Concat{Subs: []Node{&Lit{Class: charclass.Single('a')}, Empty{}}},
		&Lit{Class: charclass.Single('b')},
	}}
	s := Simplify(n)
	c, ok := s.(*Concat)
	if !ok || len(c.Subs) != 2 {
		t.Fatalf("Simplify = %#v", s)
	}
	// r{1,1} -> r
	r := &Repeat{Sub: &Lit{Class: charclass.Single('x')}, Min: 1, Max: 1}
	if _, ok := Simplify(r).(*Lit); !ok {
		t.Error("r{1,1} not collapsed")
	}
	// r{0,0} -> eps
	r = &Repeat{Sub: &Lit{Class: charclass.Single('x')}, Min: 0, Max: 0}
	if _, ok := Simplify(r).(Empty); !ok {
		t.Error("r{0,0} not collapsed to epsilon")
	}
}

func TestCloneIndependent(t *testing.T) {
	re := MustParse("a(b|c){2,4}d")
	c := Clone(re.Root).(*Concat)
	c.Subs[0].(*Lit).Class = charclass.Single('z')
	if re.Root.(*Concat).Subs[0].(*Lit).Class.Contains('z') {
		t.Error("Clone aliases original")
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse("a(b")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "a(b") {
		t.Errorf("error %q does not mention pattern", err)
	}
}

func TestCaseInsensitiveFlag(t *testing.T) {
	re := MustParse("(?i)abc")
	lit := re.Root.(*Concat).Subs[0].(*Lit)
	if !lit.Class.Contains('a') || !lit.Class.Contains('A') {
		t.Error("(?i) did not fold literal")
	}
	re = MustParse("(?i)[a-c]x")
	cls := re.Root.(*Concat).Subs[0].(*Lit).Class
	if !cls.Contains('B') || cls.Count() != 6 {
		t.Errorf("(?i)[a-c] class = %s", cls)
	}
	// Non-letters unaffected; flag only valid as a prefix.
	re = MustParse("(?i)1?2")
	if re.Root.States() != 2 {
		t.Errorf("states = %d", re.Root.States())
	}
	if _, err := Parse("a(?i)b"); err == nil {
		t.Error("mid-pattern (?i) should be rejected")
	}
}

func TestCaseInsensitiveWithAnchor(t *testing.T) {
	re := MustParse("(?i)^abc$")
	if !re.StartAnchored || !re.EndAnchored {
		t.Error("anchors lost with (?i)")
	}
}
