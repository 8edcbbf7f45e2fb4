package regexast

import "testing"

func TestAnalyze(t *testing.T) {
	// a(lit) [bc](class) .(dot) d(lit) e(lit) f(lit) g(lit).
	s := Analyze(MustParse("a[bc].d?e{3,9}(f|g)*").Root)
	if s.Literals != 5 || s.Classes != 1 || s.Dots != 1 {
		t.Errorf("lit/class/dot = %d/%d/%d, want 5/1/1", s.Literals, s.Classes, s.Dots)
	}
	if s.Optionals != 1 || s.BoundedRepetitions != 1 || s.UnboundedRepetitions != 1 {
		t.Errorf("opt/bounded/unbounded = %d/%d/%d", s.Optionals, s.BoundedRepetitions, s.UnboundedRepetitions)
	}
	if s.MaxBound != 9 {
		t.Errorf("MaxBound = %d", s.MaxBound)
	}
	if s.Alternations != 1 {
		t.Errorf("Alternations = %d", s.Alternations)
	}
}

func TestStarHeight(t *testing.T) {
	cases := []struct {
		pattern string
		want    int
	}{
		{"abc", 0},
		{"a*", 1},
		{"(a*b)*", 2},
		{"(a*|b+)c*", 1},
		{"((a+)*)+", 3},
		{"a{3,9}", 0}, // bounded repetition is not a star
	}
	for _, tc := range cases {
		if got := Analyze(MustParse(tc.pattern).Root).StarHeight; got != tc.want {
			t.Errorf("starHeight(%q) = %d, want %d", tc.pattern, got, tc.want)
		}
	}
}

func TestAverageClassSize(t *testing.T) {
	// a (1) + [bc] (2) + . (256) => (1+2+256)/3
	got := AverageClassSize(MustParse("a[bc].").Root)
	want := (1.0 + 2.0 + 256.0) / 3.0
	if got != want {
		t.Errorf("AverageClassSize = %v, want %v", got, want)
	}
	if AverageClassSize(MustParse("").Root) != 0 {
		t.Error("empty pattern class size should be 0")
	}
}

func TestAnalyzeStatesMatch(t *testing.T) {
	re := MustParse("ab{10,48}c")
	s := Analyze(re.Root)
	if s.States != re.Root.States() || s.UnfoldedStates != UnfoldedStates(re.Root) {
		t.Error("state counts inconsistent with direct queries")
	}
}
