package nbva

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/regexast"
)

// compile rewrites the pattern through the §4.1 pipeline with the given
// unfolding threshold and constructs the machine.
func compile(t testing.TB, pattern string, threshold int) *Machine {
	t.Helper()
	re := regexast.MustParse(pattern)
	root := regexast.UnfoldThreshold(re.Root, threshold)
	root = regexast.SplitMinMax(root)
	m, err := ConstructFromNode(root)
	if err != nil {
		t.Fatalf("construct %q: %v", pattern, err)
	}
	m.StartAnchored = re.StartAnchored
	m.EndAnchored = re.EndAnchored
	return m
}

// numBV counts the machine's BV-STEs.
func numBV(m *Machine) int {
	n := 0
	for _, s := range m.States {
		if s.BV != nil {
			n++
		}
	}
	return n
}

// matches reports whether any match ends anywhere in input.
func matches(m *Machine, input []byte) bool { return len(m.MatchEnds(input)) > 0 }

func TestExample22Structure(t *testing.T) {
	// Example 2.2: a.*bc{n}. With threshold 1 the c{7} stays a BV.
	m := compile(t, "a.*bc{7}", 1)
	if m.NumStates() != 4 {
		t.Fatalf("states = %d, want 4\n%s", m.NumStates(), m)
	}
	if numBV(m) != 1 {
		t.Fatalf("BV states = %d", numBV(m))
	}
	last := m.States[3]
	if last.BV == nil || last.BV.Size != 7 || last.BV.Read != ReadExact {
		t.Errorf("BV spec = %+v", last.BV)
	}
	if m.UnfoldedStates() != 3+7 {
		t.Errorf("UnfoldedStates = %d", m.UnfoldedStates())
	}
}

func TestExample22Matching(t *testing.T) {
	m := compile(t, "a.*bc{7}", 1)
	if !matches(m, []byte("a xx b"+strings.Repeat("c", 7))) {
		t.Error("should match exactly 7 c's")
	}
	if matches(m, []byte("a xx b"+strings.Repeat("c", 6))) {
		t.Error("should not match 6 c's")
	}
	// 8 c's: run of 8 has no suffix==7 starting at entry... but the b
	// can only enter once; a run of 8 c's after a single b means counts
	// 1..8 pass through 7 at the 7th c — the match fires there.
	ends := m.MatchEnds([]byte("axb" + strings.Repeat("c", 8)))
	if len(ends) != 1 || ends[0] != 9 {
		t.Errorf("MatchEnds = %v, want [9]", ends)
	}
}

func TestFig5Example(t *testing.T) {
	// Fig 5: b(a{7}|c{5})b with BV depth 4 — functional behaviour.
	m := compile(t, "b(a{7}|c{5})b", 1)
	if numBV(m) != 2 {
		t.Fatalf("BV states = %d\n%s", numBV(m), m)
	}
	if !matches(m, []byte("xbaaaaaaab")) {
		t.Error("7 a's should match")
	}
	if !matches(m, []byte("xbcccccb")) {
		t.Error("5 c's should match")
	}
	// 6 c's: the overflow check (§3.1 example) kills STE3; no match.
	if matches(m, []byte("xbccccccb")) {
		t.Error("6 c's should not match")
	}
	if matches(m, []byte("xbaaaaaab")) {
		t.Error("6 a's should not match")
	}
}

func TestRAllRange(t *testing.T) {
	// ab{10,48}c -> a b{10} b{0,38} c.
	m := compile(t, "ab{10,48}c", 4)
	if numBV(m) != 2 {
		t.Fatalf("BV states = %d\n%s", numBV(m), m)
	}
	for _, n := range []int{10, 11, 30, 48} {
		if !matches(m, []byte("a"+strings.Repeat("b", n)+"c")) {
			t.Errorf("%d b's should match", n)
		}
	}
	for _, n := range []int{9, 49, 0} {
		if matches(m, []byte("a"+strings.Repeat("b", n)+"c")) {
			t.Errorf("%d b's should not match", n)
		}
	}
}

func TestZeroMinRange(t *testing.T) {
	// c{0,16} is nullable: bypass edge must exist.
	m := compile(t, "ac{0,3}d", 1)
	for _, s := range []string{"ad", "acd", "accd", "acccd"} {
		if !matches(m, []byte(s)) {
			t.Errorf("%q should match", s)
		}
	}
	if matches(m, []byte("accccd")) {
		t.Error("4 c's should not match")
	}
}

func TestReentryTracksMultipleRuns(t *testing.T) {
	// (ab){1}... use σ-level: a{2} preceded by a* entry each step:
	// pattern .a{2}b — entries at every position; bit vector tracks
	// overlapping runs.
	m := compile(t, ".a{2}b", 1)
	if !matches(m, []byte("xaab")) {
		t.Error("xaab should match")
	}
	if !matches(m, []byte("aaab")) {
		t.Error("aaab should match (run starting at offset 1)")
	}
	if matches(m, []byte("xab")) {
		t.Error("xab should not match")
	}
}

func TestUnfoldedThresholdEquivalence(t *testing.T) {
	// With a huge threshold everything unfolds: no BV states.
	m := compile(t, "ab{3,5}c", 100)
	if numBV(m) != 0 {
		t.Errorf("expected full unfold, got %d BV states", numBV(m))
	}
}

func TestConstructErrors(t *testing.T) {
	// Composite bounded repetition must have been unfolded.
	re := regexast.MustParse("(ab){2,9}")
	_, err := ConstructFromNode(re.Root)
	if !errors.Is(err, ErrNotCompilable) {
		t.Errorf("expected ErrNotCompilable, got %v", err)
	}
	// Unsplit σ{m,n} must have been rewritten.
	re = regexast.MustParse("a{3,9}")
	_, err = ConstructFromNode(re.Root)
	if !errors.Is(err, ErrNotCompilable) {
		t.Errorf("expected ErrNotCompilable, got %v", err)
	}
	// r{m,} must be split first.
	re = regexast.MustParse("a{5,}")
	_, err = ConstructFromNode(re.Root)
	if !errors.Is(err, ErrNotCompilable) {
		t.Errorf("expected ErrNotCompilable, got %v", err)
	}
}

func TestAnchoredNBVA(t *testing.T) {
	m := compile(t, "^a{3}b", 1)
	if !matches(m, []byte("aaab")) {
		t.Error("anchored match at start failed")
	}
	if matches(m, []byte("xaaab")) {
		t.Error("anchored pattern matched mid-stream")
	}
}

// randomBoundedPattern generates patterns mixing literals, classes, and
// bounded repetitions with bounds in [2,9].
func randomBoundedPattern(r *rand.Rand) string {
	var b strings.Builder
	n := r.Intn(4) + 1
	for i := 0; i < n; i++ {
		switch r.Intn(5) {
		case 0:
			b.WriteByte(byte('a' + r.Intn(3)))
		case 1:
			b.WriteString("[ab]")
		case 2:
			lo := r.Intn(4) + 2
			b.WriteString(string(rune('a'+r.Intn(3))) + "{" + itoa(lo) + "}")
		case 3:
			hi := r.Intn(5) + 2
			b.WriteString(string(rune('a'+r.Intn(3))) + "{0," + itoa(hi) + "}")
		default:
			lo := r.Intn(3) + 2
			hi := lo + r.Intn(4)
			b.WriteString(string(rune('a'+r.Intn(3))) + "{" + itoa(lo) + "," + itoa(hi) + "}")
		}
	}
	return b.String()
}

func itoa(n int) string {
	var b []byte
	if n == 0 {
		return "0"
	}
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestPropNBVAEquivalentToUnfoldedNFA(t *testing.T) {
	// The central NBVA correctness property: for any pattern, the NBVA
	// with BVs (threshold 1) accepts exactly the same inputs as the fully
	// unfolded Glushkov NFA.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 250; trial++ {
		pattern := randomBoundedPattern(r)
		re, err := regexast.Parse(pattern)
		if err != nil {
			t.Fatalf("parse %q: %v", pattern, err)
		}
		root := regexast.SplitMinMax(regexast.UnfoldThreshold(re.Root, 1))
		m, err := ConstructFromNode(root)
		if err != nil {
			t.Fatalf("construct %q: %v", pattern, err)
		}
		nfa, err := automata.Glushkov(re, 1<<20)
		if err != nil {
			t.Fatalf("glushkov %q: %v", pattern, err)
		}
		for rep := 0; rep < 15; rep++ {
			input := make([]byte, r.Intn(25))
			for i := range input {
				input[i] = byte('a' + r.Intn(3))
			}
			got := m.MatchEnds(input)
			want := nfa.MatchEnds(input)
			if !equalInts(got, want) {
				t.Fatalf("pattern %q input %q:\n nbva=%v\n nfa =%v\n%s", pattern, input, got, want, m)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRunnerStats(t *testing.T) {
	m := compile(t, "bc{5}d", 1)
	r := NewRunner(m)
	r.Step('b')
	if len(r.BVUpdated()) != 0 {
		t.Error("BV active before any c")
	}
	r.Step('c')
	if len(r.BVUpdated()) != 1 {
		t.Error("BV not active on first c")
	}
	if got := r.MatchedRef().Count(); got != 1 {
		t.Errorf("matched STEs = %d", got)
	}
	// Overflow after 6 c's.
	for i := 0; i < 4; i++ {
		r.Step('c')
	}
	r.Step('c') // 6th c: single bit shifts out
	// The vector was updated but overflowed to zero, so its STE did not match.
	if len(r.BVUpdated()) != 1 || r.MatchedRef().Any() {
		t.Errorf("after overflow: updated %v, matched %s", r.BVUpdated(), r.MatchedRef())
	}
}

func TestSplitChainEquivalence(t *testing.T) {
	// Example 4.3 splits a{1024} into a{504}a{504}a{16} across tiles; the
	// rewrite must preserve the language (this is what makes the
	// mapper's physical split legal).
	whole := compile(t, "xa{100}y", 1)
	split := compile(t, "xa{60}a{30}a{10}y", 1)
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := r.Intn(140)
		input := []byte("x" + strings.Repeat("a", n) + "y")
		a := matches(whole, input)
		b := matches(split, input)
		if a != b {
			t.Fatalf("n=%d: whole=%v split=%v", n, a, b)
		}
		if a != (n == 100) {
			t.Fatalf("n=%d: unexpected result %v", n, a)
		}
	}
	// rAll split: σ{0,a}σ{0,b} == σ{0,a+b}.
	wholeAll := compile(t, "xa{0,50}y", 1)
	splitAll := compile(t, "xa{0,30}a{0,20}y", 1)
	for trial := 0; trial < 40; trial++ {
		n := r.Intn(70)
		input := []byte("x" + strings.Repeat("a", n) + "y")
		if matches(wholeAll, input) != matches(splitAll, input) {
			t.Fatalf("rAll split differs at n=%d", n)
		}
	}
}
