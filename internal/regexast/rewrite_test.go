package regexast

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/charclass"
)

func TestUnfoldThresholdPaperExample(t *testing.T) {
	// §4.1 Example: threshold 4, ab(cd){2}e{1,3}f{2,}g{5} ->
	// abcdcdee?e?fff*g{5}.
	re := MustParse("ab(cd){2}e{1,3}f{2,}g{5}")
	got := String(UnfoldThreshold(re.Root, 4))
	want := "abcdcdee?e?fff*g{5}"
	if got != want {
		t.Errorf("UnfoldThreshold = %q, want %q", got, want)
	}
}

func TestUnfoldThresholdKeepsLargeBounds(t *testing.T) {
	re := MustParse("a{100}b{3}")
	got := String(UnfoldThreshold(re.Root, 16))
	if got != "a{100}bbb" {
		t.Errorf("got %q", got)
	}
}

func TestUnfoldThresholdStates(t *testing.T) {
	// Unfolding preserves the fully-unfolded state count.
	for _, p := range []string{"a{2,5}", "(ab){3}c", "x{4,}", "a(b|c){2}d"} {
		re := MustParse(p)
		unf := UnfoldThreshold(re.Root, 100)
		if UnfoldedStates(unf) != UnfoldedStates(re.Root) {
			t.Errorf("%q: unfolded states changed %d -> %d",
				p, UnfoldedStates(re.Root), UnfoldedStates(unf))
		}
		if MaxRepeatBound(unf) > 1 {
			t.Errorf("%q: bounded repetition survived full-threshold unfold: %s", p, String(unf))
		}
	}
}

func TestUnfoldAll(t *testing.T) {
	re := MustParse("a{5}b")
	n, err := UnfoldAll(re.Root, 100)
	if err != nil {
		t.Fatal(err)
	}
	if String(n) != "aaaaab" {
		t.Errorf("UnfoldAll = %q", String(n))
	}
	if _, err := UnfoldAll(MustParse("a{1000}").Root, 100); !errors.Is(err, ErrBudget) {
		t.Errorf("expected ErrBudget, got %v", err)
	}
}

func TestSplitMinMaxPaperExample(t *testing.T) {
	// §4.1 Example: b{10,48} -> b{10}b{0,38}.
	re := MustParse("ab{10,48}c")
	got := String(SplitMinMax(re.Root))
	if got != "ab{10}b{0,38}c" {
		t.Errorf("SplitMinMax = %q", got)
	}
	// r{m,} -> r{m} r*
	re = MustParse("af{128,}g")
	got = String(SplitMinMax(re.Root))
	if got != "af{128}f*g" {
		t.Errorf("SplitMinMax = %q", got)
	}
	// Exact bound untouched.
	re = MustParse("d{34}")
	if got := String(SplitMinMax(re.Root)); got != "d{34}" {
		t.Errorf("SplitMinMax = %q", got)
	}
	// {0,n} untouched (already rAll-shaped).
	re = MustParse("c{0,16}")
	if got := String(SplitMinMax(re.Root)); got != "c{0,16}" {
		t.Errorf("SplitMinMax = %q", got)
	}
}

func TestLinearizePlainString(t *testing.T) {
	re := MustParse("a[bc].d")
	seqs, err := Linearize(re.Root, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || len(seqs[0]) != 4 {
		t.Fatalf("got %d sequences, first len %d", len(seqs), len(seqs[0]))
	}
	if seqs[0][0] != charclass.Single('a') || !seqs[0][2].IsAny() {
		t.Error("sequence classes wrong")
	}
}

func TestLinearizeOptionalTail(t *testing.T) {
	// a[bc].d? -> {a[bc]., a[bc].d}: 3 + 4 = 7 states <= 2*4.
	re := MustParse("a[bc].d?")
	seqs, err := Linearize(re.Root, 2*re.Root.States())
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d sequences", len(seqs))
	}
	lens := map[int]bool{len(seqs[0]): true, len(seqs[1]): true}
	if !lens[3] || !lens[4] {
		t.Errorf("sequence lengths %d,%d; want 3 and 4", len(seqs[0]), len(seqs[1]))
	}
}

func TestLinearizePaperExample(t *testing.T) {
	// §4.2 Example: a(b{1,2}|c)e -> abe|abbe|ace.
	re := MustParse("a(b{1,2}|c)e")
	seqs, err := Linearize(re.Root, 2*5) // a,b,b,c,e = 5 written states? b{1,2} counts b once -> 4
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("got %d sequences, want 3", len(seqs))
	}
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	if total != 3+4+3 {
		t.Errorf("total states %d, want 10", total)
	}
}

func TestLinearizeRejectsUnbounded(t *testing.T) {
	re := MustParse("ab*c")
	if _, err := Linearize(re.Root, 100); !errors.Is(err, ErrNotLinear) {
		t.Errorf("expected ErrNotLinear, got %v", err)
	}
}

func TestLinearizeRejectsNullable(t *testing.T) {
	re := MustParse("a?")
	if _, err := Linearize(re.Root, 100); !errors.Is(err, ErrNotLinear) {
		t.Errorf("expected ErrNotLinear, got %v", err)
	}
}

func TestLinearizeBudget(t *testing.T) {
	// (a|b){8} has 2^8 = 256 sequences of length 8 = 2048 states.
	re := MustParse("(a|b){8}")
	if _, err := Linearize(re.Root, 16); !errors.Is(err, ErrBudget) {
		t.Errorf("expected ErrBudget, got %v", err)
	}
	seqs, err := Linearize(re.Root, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 256 {
		t.Errorf("got %d sequences, want 256", len(seqs))
	}
}

func TestLinearizeDedup(t *testing.T) {
	// (a|a)b has duplicate branches.
	re := MustParse("(a|a)b")
	seqs, err := Linearize(re.Root, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Errorf("got %d sequences after dedup, want 1", len(seqs))
	}
}

func TestLinearizeRepeatRange(t *testing.T) {
	// a{2,4} -> {aa, aaa, aaaa}.
	re := MustParse("a{2,4}")
	seqs, err := Linearize(re.Root, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("got %d sequences", len(seqs))
	}
}

// randomAST builds a random tree over a tiny alphabet for structural
// property tests.
func randomAST(r *rand.Rand, depth int) Node {
	if depth <= 0 {
		return &Lit{Class: charclass.Single(byte('a' + r.Intn(3)))}
	}
	switch r.Intn(6) {
	case 0:
		return &Concat{Subs: []Node{randomAST(r, depth-1), randomAST(r, depth-1)}}
	case 1:
		return &Alt{Subs: []Node{randomAST(r, depth-1), randomAST(r, depth-1)}}
	case 2:
		return &Repeat{Sub: randomAST(r, depth-1), Min: 0, Max: Unbounded}
	case 3:
		return &Repeat{Sub: randomAST(r, depth-1), Min: 0, Max: 1}
	case 4:
		lo := r.Intn(3) + 1
		return &Repeat{Sub: randomAST(r, depth-1), Min: lo, Max: lo + r.Intn(3)}
	default:
		return &Lit{Class: charclass.Of(byte('a'+r.Intn(3)), byte('a'+r.Intn(3)))}
	}
}

func TestPropPrintParseStable(t *testing.T) {
	// String(ast) re-parses to a tree that prints identically (fixpoint
	// after one round), and Simplify preserves the printed form's parse.
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		ast := Simplify(randomAST(r, 3))
		s := String(ast)
		re, err := Parse(s)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", s, err)
		}
		s2 := String(re.Root)
		if s2 != s {
			t.Fatalf("unstable print: %q -> %q", s, s2)
		}
	}
}

func TestPropSimplifyPreservesCounts(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		ast := randomAST(r, 3)
		simp := Simplify(Clone(ast))
		if UnfoldedStates(simp) > UnfoldedStates(ast) {
			t.Fatalf("Simplify grew unfolded states: %s", String(ast))
		}
		if Nullable(simp) != Nullable(ast) {
			t.Fatalf("Simplify changed nullability: %s", String(ast))
		}
	}
}
