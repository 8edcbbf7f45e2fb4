package automata

import (
	"errors"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/regexast"
)

func mustNFA(t testing.TB, pattern string) *NFA {
	t.Helper()
	nfa, err := Glushkov(regexast.MustParse(pattern), 0)
	if err != nil {
		t.Fatalf("Glushkov(%q): %v", pattern, err)
	}
	return nfa
}

func TestGlushkovPaperExample21(t *testing.T) {
	// Example 2.1: r = a([bc]|b.*d), 5 states, q0 initial, q1 & q4 final.
	nfa := mustNFA(t, "a([bc]|b.*d)")
	if nfa.NumStates() != 5 {
		t.Fatalf("states = %d, want 5", nfa.NumStates())
	}
	if len(nfa.Initial) != 1 || nfa.Initial[0] != 0 {
		t.Errorf("Initial = %v", nfa.Initial)
	}
	if len(nfa.Final) != 2 {
		t.Errorf("Final = %v", nfa.Final)
	}
	// q0 (a) must connect to both alternatives' heads.
	if len(nfa.States[0].Follow) != 2 {
		t.Errorf("q0.Follow = %v", nfa.States[0].Follow)
	}
}

func TestGlushkovHomogeneity(t *testing.T) {
	// Homogeneous by construction: every state has exactly one class and
	// all incoming edges target it — structurally guaranteed, here we
	// verify the expected labels of Example 2.1.
	nfa := mustNFA(t, "a([bc]|b.*d)")
	wantCounts := []int{1, 2, 1, 256, 1} // a, [bc], b, ., d
	for i, w := range wantCounts {
		if nfa.States[i].Class.Count() != w {
			t.Errorf("q%d class size = %d, want %d", i, nfa.States[i].Class.Count(), w)
		}
	}
}

func TestGlushkovLNFAExample23(t *testing.T) {
	// Example 2.3: a[bc].d? is an LNFA with 4 states.
	nfa := mustNFA(t, "a[bc].d?")
	if nfa.NumStates() != 4 {
		t.Fatalf("states = %d", nfa.NumStates())
	}
	// q2 and q3 are both final, so the line is not strictly linear.
	if len(nfa.Final) != 2 || nfa.Final[0] != 2 || nfa.Final[1] != 3 {
		t.Errorf("Final = %v", nfa.Final)
	}
}

func TestGlushkovStrictLinear(t *testing.T) {
	// abc is a line q0 -> q1 -> q2 with q0 initial and q2 the one final
	// state: the strict LNFA form the RAP hardware executes (§3.2).
	nfa := mustNFA(t, "abc")
	for i, s := range nfa.States {
		if i < 2 && (len(s.Follow) != 1 || s.Follow[0] != i+1) || i == 2 && len(s.Follow) != 0 {
			t.Errorf("abc: q%d follow = %v", i, s.Follow)
		}
	}
	if len(nfa.Initial) != 1 || nfa.Initial[0] != 0 || len(nfa.Final) != 1 || nfa.Final[0] != 2 {
		t.Errorf("abc: I=%v F=%v", nfa.Initial, nfa.Final)
	}
	if nfa = mustNFA(t, "a|b"); len(nfa.Initial) != 2 {
		t.Errorf("a|b is not linear (two initial states), I=%v", nfa.Initial)
	}
	if nfa = mustNFA(t, "ab*c"); len(nfa.States[1].Follow) != 2 || nfa.States[1].Follow[0] != 1 {
		t.Errorf("ab*c has a self-loop on q1, follow = %v", nfa.States[1].Follow)
	}
}

func TestGlushkovUnfoldsBoundedRepetition(t *testing.T) {
	// a(.a){3}b unfolds to a.a.a.ab: 8 states (Fig 3).
	nfa := mustNFA(t, "a(.a){3}b")
	if nfa.NumStates() != 8 {
		t.Fatalf("states = %d, want 8", nfa.NumStates())
	}
	for i, s := range nfa.States[:7] {
		if len(s.Follow) != 1 || s.Follow[0] != i+1 {
			t.Errorf("unfolded a(.a){3}b should be a line, q%d follow = %v", i, s.Follow)
		}
	}
}

func TestGlushkovBudget(t *testing.T) {
	_, err := Glushkov(regexast.MustParse("a{70000}"), 0)
	if err == nil {
		t.Fatal("expected budget error for a{70000}")
	}
}

func TestMatchSemantics(t *testing.T) {
	cases := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"abc", "xxabcxx", true},
		{"abc", "xxabxcx", false},
		{"a(.a){3}b", "xazazazab", true},
		{"a(.a){3}b", "xazazab", false},
		{"a.*d", "a then d", true},
		{"b(a{7}|c{5})b", "xbaaaaaaab", true},
		{"b(a{7}|c{5})b", "xbaaaaaab", false}, // only 6 a's
		{"b(a{7}|c{5})b", "bcccccb", true},
		{"b(a{7}|c{5})b", "bccccccb", false}, // 6 c's overflows
		{"^abc", "abcd", true},
		{"^abc", "xabc", false},
		{"abc$", "xabc", true},
		{"abc$", "abcx", false},
	}
	for _, tc := range cases {
		nfa := mustNFA(t, tc.pattern)
		if got := (len(nfa.MatchEnds([]byte(tc.input))) > 0); got != tc.want {
			t.Errorf("Matches(%q, %q) = %v, want %v", tc.pattern, tc.input, got, tc.want)
		}
	}
}

func TestMatchEnds(t *testing.T) {
	nfa := mustNFA(t, "ab")
	ends := nfa.MatchEnds([]byte("abxab"))
	if len(ends) != 2 || ends[0] != 1 || ends[1] != 4 {
		t.Errorf("MatchEnds = %v", ends)
	}
	// Shift-And Fig 2: a[bc].d? over "abc" matches at offset 2.
	nfa = mustNFA(t, "a[bc].d?")
	ends = nfa.MatchEnds([]byte("abc"))
	if len(ends) != 1 || ends[0] != 2 {
		t.Errorf("MatchEnds = %v, want [2]", ends)
	}
}

func TestNullableMatchesEmpty(t *testing.T) {
	nfa := mustNFA(t, "a*")
	if !nfa.MatchesEmpty {
		t.Error("a* should match empty")
	}
	ends := nfa.MatchEnds([]byte("b"))
	if len(ends) != 1 || ends[0] != -1 {
		t.Errorf("MatchEnds = %v", ends)
	}
}

// --- Oracle comparison against the standard library ---

// genPattern emits a random pattern in a subset that both our engine and
// the stdlib regexp treat identically on ASCII inputs.
func genPattern(r *rand.Rand, depth int) string {
	if depth <= 0 {
		return genAtom(r)
	}
	switch r.Intn(6) {
	case 0:
		return genPattern(r, depth-1) + genPattern(r, depth-1)
	case 1:
		return "(" + genPattern(r, depth-1) + "|" + genPattern(r, depth-1) + ")"
	case 2:
		return "(" + genPattern(r, depth-1) + ")*"
	case 3:
		return "(" + genPattern(r, depth-1) + ")?"
	case 4:
		n := r.Intn(3) + 1
		m := n + r.Intn(3)
		return "(" + genAtom(r) + "){" + itoa(n) + "," + itoa(m) + "}"
	default:
		return genAtom(r)
	}
}

func genAtom(r *rand.Rand) string {
	switch r.Intn(4) {
	case 0:
		return string(rune('a' + r.Intn(4)))
	case 1:
		return "[ab]"
	case 2:
		return "[a-c]"
	default:
		return string(rune('a' + r.Intn(4)))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestPropOracleAgainstStdlibRegexp(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		pattern := genPattern(r, 3)
		re, err := regexast.Parse(pattern)
		if err != nil {
			t.Fatalf("our parser rejected generated %q: %v", pattern, err)
		}
		nfa, err := Glushkov(re, 0)
		if err != nil {
			continue // budget blowup is fine for the oracle test
		}
		oracle, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("stdlib rejected %q: %v", pattern, err)
		}
		for i := 0; i < 20; i++ {
			n := r.Intn(12)
			var sb strings.Builder
			for j := 0; j < n; j++ {
				sb.WriteByte(byte('a' + r.Intn(4)))
			}
			input := sb.String()
			got := (len(nfa.MatchEnds([]byte(input))) > 0)
			want := oracle.MatchString(input)
			if got != want {
				t.Fatalf("pattern %q input %q: ours=%v stdlib=%v\n%s",
					pattern, input, got, want, nfa)
			}
		}
	}
}

func TestRunnerActiveCount(t *testing.T) {
	nfa := mustNFA(t, "ab")
	r := NewRunner(nfa)
	r.Step('a')
	if r.active.Count() != 1 {
		t.Errorf("ActiveCount = %d", r.active.Count())
	}
	// An anchored initial state is available at offset 0 only.
	anch := mustNFA(t, "^ab")
	ra := NewRunner(anch)
	ra.Step('x')
	ra.Step('a')
	if ra.active.Count() != 0 {
		t.Error("anchored initial state activated mid-stream")
	}
	ra = NewRunner(anch)
	ra.Step('a')
	if ra.active.Count() != 1 {
		t.Error("anchored initial state not active at offset 0")
	}
}

func TestCaseInsensitiveAgainstStdlib(t *testing.T) {
	// The (?i) fold must agree with RE2's on ASCII inputs.
	patterns := []string{"(?i)abc", "(?i)[a-c]x", "(?i)a(b|c)*d"}
	r := rand.New(rand.NewSource(15))
	for _, p := range patterns {
		nfa, err := Glushkov(regexast.MustParse(p), 0)
		if err != nil {
			t.Fatal(err)
		}
		oracle := regexp.MustCompile("(?s)" + p)
		for trial := 0; trial < 60; trial++ {
			input := make([]byte, r.Intn(14))
			for i := range input {
				input[i] = byte("abcdABCDx"[r.Intn(9)])
			}
			if got := len(nfa.MatchEnds(input)) > 0; got != oracle.Match(input) {
				t.Fatalf("%q input %q: ours=%v stdlib=%v", p, input, got, oracle.Match(input))
			}
		}
	}
}

// TestConstructListsStrictlyIncreasing: every follow, first and last list
// Construct returns is strictly increasing, also where nested loops add
// the same back edge twice.
func TestConstructListsStrictlyIncreasing(t *testing.T) {
	increasing := func(s []int) bool {
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return false
			}
		}
		return true
	}
	patterns := []string{"((a|b)*c?)*d", "(a*)*", "(a?b?)+c", "((ab)*|(ba)+)*"}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		patterns = append(patterns, genPattern(r, 4))
	}
	for _, p := range patterns {
		root, err := regexast.UnfoldAll(regexast.MustParse(p).Root, DefaultMaxStates)
		if err != nil {
			continue
		}
		g, err := Construct(root, nil)
		if err != nil {
			t.Fatalf("%q: %v", p, err)
		}
		if !increasing(g.First) || !increasing(g.Last) {
			t.Fatalf("%q: first %v, last %v", p, g.First, g.Last)
		}
		for q, f := range g.Follow {
			if !increasing(f) {
				t.Fatalf("%q: follow(%d) = %v", p, q, f)
			}
		}
	}
}

// TestConstructBoundedHook: a nil hook refuses a bounded repetition; a hook
// that keeps it makes it one position of the nullability it reports.
func TestConstructBoundedHook(t *testing.T) {
	root := regexast.MustParse("a(bc){2,3}d").Root
	if _, err := Construct(root, nil); err == nil || !strings.Contains(err.Error(), "survived unfolding") {
		t.Fatalf("nil hook: err = %v, want survived unfolding", err)
	}
	g, err := Construct(root, func(*regexast.Repeat) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Leaves[1].(*regexast.Repeat); len(g.Leaves) != 3 || !ok {
		t.Fatalf("leaves = %v, want a, the kept repetition, d", g.Leaves)
	}
	// The kept position is nullable, so a is followed by it and by d.
	if len(g.Follow[0]) != 2 || g.Follow[0][0] != 1 || g.Follow[0][1] != 2 || len(g.Follow[1]) != 1 || g.Follow[2] != nil {
		t.Errorf("follow = %v", g.Follow)
	}
	refused := errors.New("refused")
	if _, err := Construct(root, func(*regexast.Repeat) (bool, error) { return false, refused }); !errors.Is(err, refused) {
		t.Errorf("refusing hook: err = %v", err)
	}
}
