package compile

import (
	"strings"
	"testing"

	"repro/internal/automata"
)

func compileOne(t *testing.T, pattern string) *Compiled {
	t.Helper()
	res := Compile([]string{pattern}, Options{})
	if len(res.Errors) > 0 {
		t.Fatalf("Compile(%q): %v", pattern, res.Errors[0])
	}
	return &res.Regexes[0]
}

func TestDecisionGraphRoutes(t *testing.T) {
	cases := []struct {
		pattern string
		mode    Mode
	}{
		{"abcdef", ModeLNFA},
		{"a[bc].d?", ModeLNFA},
		{"a(b|c)e", ModeLNFA},    // distributes to abe|ace
		{"ab{10,48}c", ModeNBVA}, // large bound
		{"AppPath=[C-Z]x{1,64}e", ModeNBVA},
		{"a(b|c)*d", ModeNFA},    // unbounded loop, not linear
		{"a.*d", ModeNFA},        // .* loop
		{"^abc", ModeNFA},        // anchored
		{"a{3}b", ModeLNFA},      // small bound unfolds then linear
		{"(ab|cd){40}", ModeNFA}, // composite large bound: unfoldable only as NFA
		{"a?", ModeNFA},          // nullable
	}
	for _, tc := range cases {
		c := compileOne(t, tc.pattern)
		if c.Mode != tc.mode {
			t.Errorf("%q -> %v (trail %q), want %v", tc.pattern, c.Mode, c.DecisionTrail, tc.mode)
		}
	}
}

func TestNBVACompression(t *testing.T) {
	c := compileOne(t, "ab{100}c")
	if c.Mode != ModeNBVA {
		t.Fatalf("mode = %v", c.Mode)
	}
	if c.STEs != 3 {
		t.Errorf("STEs = %d, want 3 (a, b-BV, c)", c.STEs)
	}
	if c.BVBits != 100 {
		t.Errorf("BVBits = %d", c.BVBits)
	}
	if c.UnfoldedSTEs != 102 {
		t.Errorf("UnfoldedSTEs = %d", c.UnfoldedSTEs)
	}
}

func TestLNFAGrowthTracked(t *testing.T) {
	c := compileOne(t, "a(b{1,2}|c)e")
	if c.Mode != ModeLNFA {
		t.Fatalf("mode = %v, trail=%s", c.Mode, c.DecisionTrail)
	}
	// abe|abbe|ace: 10 states vs 5 unfolded.
	if c.STEs != 10 {
		t.Errorf("STEs = %d", c.STEs)
	}
	if c.LinearGrowth != 2.0 {
		t.Errorf("growth = %v", c.LinearGrowth)
	}
}

func TestLNFAGrowthBudgetFallsBack(t *testing.T) {
	// (a|b){8} linearizes to 2048 states vs 8 unfolded — way past 2x, so
	// it must fall back to NFA.
	c := compileOne(t, "(a|b){8}")
	if c.Mode != ModeNFA {
		t.Errorf("mode = %v", c.Mode)
	}
}

// TestLNFABudgetSaturates: a huge LinearBudgetFactor caps the LNFA budget
// at MaxNFAStates instead of wrapping it negative, so abc stays LNFA.
func TestLNFABudgetSaturates(t *testing.T) {
	for _, factor := range []int{2, 1 << 20, 1 << 62, 1<<63 - 1} {
		res := Compile([]string{"abc"}, Options{LinearBudgetFactor: factor})
		if c := res.Regexes[0]; c.Mode != ModeLNFA {
			t.Errorf("factor %d: abc -> %v (trail %q), want LNFA", factor, c.Mode, c.DecisionTrail)
		}
	}
}

func TestCAMMappability(t *testing.T) {
	// Digits fit one CAM code; [a-z] needs two -> switch-mapped.
	c := compileOne(t, "\\d\\d\\d")
	if c.Mode != ModeLNFA || !c.Seqs[0].CAMMappable {
		t.Errorf("\\d\\d\\d: mode=%v mappable=%v", c.Mode, c.Seqs[0].CAMMappable)
	}
	c = compileOne(t, "[a-z][a-z]")
	if c.Mode != ModeLNFA || c.Seqs[0].CAMMappable {
		t.Errorf("[a-z][a-z]: mode=%v mappable=%v", c.Mode, c.Seqs[0].CAMMappable)
	}
}

func TestCompileBatchAndShares(t *testing.T) {
	patterns := []string{"abc", "x{100}", "a(b|c)*d", "(", "def"}
	res := Compile(patterns, Options{})
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %v", res.Errors)
	}
	shares := res.ModeShares()
	if shares[ModeLNFA] != 0.5 { // abc, def of 4 valid
		t.Errorf("LNFA share = %v", shares[ModeLNFA])
	}
	if shares[ModeNBVA] != 0.25 || shares[ModeNFA] != 0.25 {
		t.Errorf("shares = %v", shares)
	}
	if len(res.ByMode(ModeLNFA)) != 2 {
		t.Errorf("ByMode(LNFA) = %d", len(res.ByMode(ModeLNFA)))
	}
}

func TestHugeNFARejected(t *testing.T) {
	// Composite repetition forces NFA mode, but 5000 states exceed the
	// 2048-state array capacity.
	errs := Compile([]string{"(ab){2500}"}, Options{}).Errors
	if len(errs) == 0 {
		t.Fatal("expected capacity error")
	}
	if !strings.Contains(errs[0].Error(), "budget") {
		t.Errorf("err = %v", errs[0])
	}
}

func TestNBVAHugeBoundWithinLimit(t *testing.T) {
	// a{60000} fits NBVA (64528 limit) but not NFA.
	c := compileOne(t, "a{60000}")
	if c.Mode != ModeNBVA {
		t.Errorf("mode = %v", c.Mode)
	}
	if len(Compile([]string{"a{65000}"}, Options{}).Errors) == 0 {
		t.Error("a{65000} should exceed NBVA capacity")
	}
}

func TestPaperFig3Regex(t *testing.T) {
	// a(.a){3}b: composite bounded repetition with small bound unfolds;
	// the unfolded a.a.a.ab is linear -> LNFA.
	c := compileOne(t, "a(.a){3}b")
	if c.Mode != ModeLNFA {
		t.Errorf("mode = %v (trail %s)", c.Mode, c.DecisionTrail)
	}
	if c.STEs != 8 {
		t.Errorf("STEs = %d, want 8", c.STEs)
	}
}

func TestSpamAssassinStyleSmallBounds(t *testing.T) {
	// Jeste.{1,8}firm.{1,8} — bounds below default threshold unfold, but
	// the unfolded pattern with optional dots is linearizable:
	// 5+8+4+8 = 25 unfolded states; sequences blow up 8*8=64 alternatives
	// -> exceeds 2x, falls to NFA... verify whichever holds consistently.
	c := compileOne(t, "Jeste.{1,8}firm.{1,8}")
	if c.Mode == ModeLNFA {
		if c.LinearGrowth > 2.0 {
			t.Errorf("LNFA accepted growth %v > 2", c.LinearGrowth)
		}
	}
	// With a lower threshold the bounds become bit vectors.
	res := Compile([]string{"Jeste.{1,8}firm.{1,8}"}, Options{UnfoldThreshold: 4})
	if len(res.Errors) > 0 {
		t.Fatal(res.Errors[0])
	}
	if c2 := res.Regexes[0]; c2.Mode != ModeNBVA {
		t.Errorf("threshold 4: mode = %v", c2.Mode)
	}
}

func TestDecisionTrailPopulated(t *testing.T) {
	c := compileOne(t, "a(b|c)*d")
	if c.DecisionTrail == "" {
		t.Error("empty decision trail")
	}
}

func TestForceNFAErrors(t *testing.T) {
	res := Compile([]string{"(", "a{9999}", "ok"}, Options{ModePolicy: ForceNFA})
	if len(res.Errors) != 2 {
		t.Fatalf("errors = %v", res.Errors)
	}
	if res.Regexes[2].Mode != ModeNFA || res.Regexes[2].Source != "ok" {
		t.Error("valid pattern mishandled")
	}
}

func TestAllowNBVAErrors(t *testing.T) {
	res := Compile([]string{")", "abc", "x{100}"}, Options{ModePolicy: AllowNBVA})
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %v", res.Errors)
	}
	if res.Regexes[1].Mode != ModeNFA {
		t.Errorf("abc mode = %v", res.Regexes[1].Mode)
	}
	if res.Regexes[2].Mode != ModeNBVA {
		t.Errorf("x{100} mode = %v", res.Regexes[2].Mode)
	}
}

func TestFromNFAs(t *testing.T) {
	nfaA := compileOne(t, "a(b|c)*d").NFA
	res := FromNFAs([]*automata.NFA{nfaA, nfaA}, []string{"named", ""})
	if res.Regexes[0].Source != "named" || res.Regexes[1].Source != "nfa-1" {
		t.Errorf("sources = %q, %q", res.Regexes[0].Source, res.Regexes[1].Source)
	}
	for i := range res.Regexes {
		if res.Regexes[i].Mode != ModeNFA || res.Regexes[i].NFA == nil {
			t.Errorf("entry %d malformed", i)
		}
	}
}

func TestModeStringAndByModeSkipsFailed(t *testing.T) {
	if ModeNFA.String() != "NFA" || ModeNBVA.String() != "NBVA" || ModeLNFA.String() != "LNFA" {
		t.Error("mode strings")
	}
	res := Compile([]string{"(", "abc"}, Options{})
	if got := len(res.ByMode(ModeLNFA)); got != 1 {
		t.Errorf("ByMode = %d", got)
	}
	shares := res.ModeShares()
	if shares[ModeLNFA] != 1.0 {
		t.Errorf("shares = %v", shares)
	}
}

func TestShareGroupOversizedRegex(t *testing.T) {
	// A single regex larger than the capacity must be rejected by the
	// grouping (it cannot be shared or placed).
	big := &Compiled{Source: "big", STEs: 5000}
	if _, err := groupForSharing([]*Compiled{big}, 2048); err == nil {
		t.Error("oversized regex accepted")
	}
}
