package verify

import (
	"math/rand"
	"strings"
	"testing"
)

func TestRunCleanAcrossEngines(t *testing.T) {
	res, err := Run(Options{Trials: 15, PatternsPerTrial: 5, InputLen: 1500, Seed: 42, CheckStdlib: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) != 0 {
		for _, m := range res.Mismatches {
			t.Error(m.String())
		}
	}
	if res.Matches == 0 {
		t.Error("verification inputs never matched anything — planting broken")
	}
	if res.Trials != 15 {
		t.Errorf("trials = %d", res.Trials)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(Options{Trials: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Trials: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Matches != b.Matches {
		t.Errorf("nondeterministic: %d vs %d matches", a.Matches, b.Matches)
	}
}

func TestLiteralFragment(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	frag := literalFragment("abx{5}cd", r)
	if string(frag) != "abxxxxxcd" {
		t.Errorf("fragment = %q", frag)
	}
	frag = literalFragment("ab(c|d)*e", r)
	if string(frag) != "ab" {
		t.Errorf("fragment = %q", frag)
	}
	if frag = literalFragment("^ab{3}c$", r); string(frag) != "abbbc" {
		t.Errorf("fragment = %q", frag)
	}
	if got := literalFragment("{bad", r); len(got) != 0 {
		t.Errorf("fragment = %q", got)
	}
}

func TestGenPatternsParseable(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		for _, p := range genPatterns(r, 8) {
			if p == "" {
				t.Fatal("empty pattern generated")
			}
		}
	}
}

func TestMismatchString(t *testing.T) {
	m := Mismatch{Trial: 3, Engine: "CAMA", Patterns: []string{"ab"}, Detail: "matches 1, reference 2"}
	s := m.String()
	if !strings.Contains(s, "CAMA") || !strings.Contains(s, "trial 3") {
		t.Errorf("Mismatch.String() = %q", s)
	}
}
