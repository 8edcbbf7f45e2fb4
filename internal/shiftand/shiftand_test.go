package shiftand

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/charclass"
	"repro/internal/compile"
	"repro/internal/regexast"
	"repro/internal/workload"
)

func seqOf(pattern string) Pattern {
	re := regexast.MustParse(pattern)
	seqs, err := regexast.Linearize(re.Root, 1<<20)
	if err != nil || len(seqs) != 1 {
		panic("seqOf wants a single-sequence pattern: " + pattern)
	}
	return Pattern(seqs[0])
}

func TestFig2Execution(t *testing.T) {
	// Fig 2: LNFA for a[bc].d? executed over "abc". The strict-LNFA form
	// splits the optional tail, so we use the 4-state line a[bc].d and the
	// 3-state line a[bc]. — matching the compiled form. The 3-state line
	// matches at offset 2 like the figure's output row (match after c).
	m, err := New([]Pattern{seqOf("a[bc]."), seqOf("a[bc].d")})
	if err != nil {
		t.Fatal(err)
	}
	ends := stepEnds(m, []byte("abc"))
	if len(ends) != 1 || ends[0].Pattern != 0 || ends[0].End != 2 {
		t.Errorf("matches = %v, want pattern 0 at 2", ends)
	}
	ends = stepEnds(m, []byte("abcd"))
	// pattern 0 at 2, pattern 1 at 3
	if len(ends) != 2 || ends[0] != (MatchEnd{0, 2}) || ends[1] != (MatchEnd{1, 3}) {
		t.Errorf("matches = %v", ends)
	}
}

func TestSection32Example(t *testing.T) {
	// §3.2 walks a..[bc] ... the LNFA module example a.[bc]: after input
	// "abc" the machine reports a match (STE3 active on c).
	m, err := New([]Pattern{{
		charclass.Single('a'), charclass.Any(), charclass.Of('b', 'c'),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stepEnds(m, []byte("abc"))) == 0 {
		t.Error("a.[bc] should match abc")
	}
	if len(stepEnds(m, []byte("ab"))) != 0 {
		t.Error("a.[bc] should not match ab")
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	if _, err := New([]Pattern{{}}); err == nil {
		t.Error("expected error for empty pattern")
	}
}

func TestOverlappingMatches(t *testing.T) {
	m, err := New([]Pattern{seqOf("aa")})
	if err != nil {
		t.Fatal(err)
	}
	ends := stepEnds(m, []byte("aaaa"))
	if len(ends) != 3 {
		t.Errorf("overlapping matches = %v, want 3", ends)
	}
}

func TestPackingNoLeak(t *testing.T) {
	// Adjacent patterns: a match ending at the last state of pattern 0
	// must not activate pattern 1's interior states.
	m, err := New([]Pattern{seqOf("ab"), seqOf("bc")})
	if err != nil {
		t.Fatal(err)
	}
	ends := stepEnds(m, []byte("abc"))
	// "ab" ends at 1; "bc" ends at 2. Crucially, "ab"+leak must not make
	// pattern 1 report at offset 2 via a fake path — it reports there
	// legitimately. Check a case where only the leak could cause a match:
	m2, err := New([]Pattern{seqOf("ab"), seqOf("xc")})
	if err != nil {
		t.Fatal(err)
	}
	if got := stepEnds(m2, []byte("abc")); len(got) != 1 || got[0] != (MatchEnd{0, 1}) {
		t.Errorf("leak check: matches = %v", got)
	}
	if len(ends) != 2 {
		t.Errorf("matches = %v", ends)
	}
}

func TestMultiPatternIdentification(t *testing.T) {
	pats := []Pattern{seqOf("cat"), seqOf("dog"), seqOf("bird")}
	m, err := New(pats)
	if err != nil {
		t.Fatal(err)
	}
	ends := stepEnds(m, []byte("the dog chased a bird and a cat"))
	want := []MatchEnd{{1, 6}, {2, 20}, {0, 30}}
	if len(ends) != len(want) {
		t.Fatalf("matches = %v, want %v", ends, want)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("match %d = %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestPropEquivalenceWithGlushkovNFA(t *testing.T) {
	// For random linear patterns, Shift-And and the Glushkov NFA simulator
	// must report identical match end offsets.
	r := rand.New(rand.NewSource(42))
	alphabet := []byte("abcd")
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(6) + 1
		pat := make(Pattern, n)
		src := make([]byte, 0, n*4)
		for i := range pat {
			switch r.Intn(3) {
			case 0:
				b := alphabet[r.Intn(len(alphabet))]
				pat[i] = charclass.Single(b)
				src = append(src, b)
			case 1:
				pat[i] = charclass.Of('a', 'b')
				src = append(src, "[ab]"...)
			default:
				pat[i] = charclass.Any()
				src = append(src, '.')
			}
		}
		m, err := New([]Pattern{pat})
		if err != nil {
			t.Fatal(err)
		}
		nfa, err := automata.Glushkov(regexast.MustParse(string(src)), 0)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 10; rep++ {
			input := make([]byte, r.Intn(20))
			for i := range input {
				input[i] = alphabet[r.Intn(len(alphabet))]
			}
			var saEnds []int
			for _, e := range stepEnds(m, input) {
				saEnds = append(saEnds, e.End)
			}
			nfaEnds := nfa.MatchEnds(input)
			if len(saEnds) != len(nfaEnds) {
				t.Fatalf("pattern %q input %q: shiftand=%v nfa=%v", src, input, saEnds, nfaEnds)
			}
			for i := range saEnds {
				if saEnds[i] != nfaEnds[i] {
					t.Fatalf("pattern %q input %q: shiftand=%v nfa=%v", src, input, saEnds, nfaEnds)
				}
			}
		}
	}
}

func TestLongPatternAcrossWords(t *testing.T) {
	// > 64 states to exercise multi-word shifting.
	n := 150
	pat := make(Pattern, n)
	input := make([]byte, n)
	for i := range pat {
		pat[i] = charclass.Single('x')
		input[i] = 'x'
	}
	m, err := New([]Pattern{pat})
	if err != nil {
		t.Fatal(err)
	}
	ends := stepEnds(m, input)
	if len(ends) != 1 || ends[0].End != n-1 {
		t.Errorf("long pattern matches = %v", ends)
	}
	if m.NumStates() != n || m.NumPatterns() != 1 {
		t.Error("counts wrong")
	}
}

func BenchmarkShiftAnd64Patterns(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pats := make([]Pattern, 64)
	for i := range pats {
		n := rng.Intn(12) + 4
		p := make(Pattern, n)
		for j := range p {
			p[j] = charclass.Single(byte('a' + rng.Intn(26)))
		}
		pats[i] = p
	}
	m, err := New(pats)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRunner(m)
	input := make([]byte, 4096)
	for i := range input {
		input[i] = byte('a' + rng.Intn(26))
	}
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range input {
			r.Step(c)
		}
	}
}

// TestLabelsEqualContainsReference: the class-major fill of New gives, bit
// for bit, the labels the definition gives — labels[c] has bit i iff state
// i's class contains c — on every linear pattern of Snort@1.0 packed into
// one machine and on the classes a word walk could get wrong.
func TestLabelsEqualContainsReference(t *testing.T) {
	var snort []Pattern
	res := compile.Compile(workload.MustGenerate("Snort", 1.0, 1).Patterns, compile.Options{})
	for _, c := range res.Regexes {
		for _, seq := range c.Seqs {
			snort = append(snort, Pattern(seq.Classes))
		}
	}
	if len(snort) < 10 {
		t.Fatalf("%d linear sequences in Snort@1.0, want at least 10", len(snort))
	}
	var hi charclass.Class
	hi.AddRange(63, 64) // straddles the first word boundary
	hi.Add(255)
	for name, patterns := range map[string][]Pattern{
		"Snort@1.0": snort,
		"edge":      {{charclass.Class{}, charclass.Any()}, {charclass.Of(0)}, {charclass.Of('a'), hi}},
	} {
		m, err := New(patterns)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for c := 0; c < 256; c++ {
			want := bitvec.New(m.NumStates())
			for i, cls := range m.classes {
				if cls.Contains(byte(c)) {
					want.Set(i)
				}
			}
			if m.labels[c].String() != want.String() {
				t.Fatalf("%s: labels[%d] = %s, Contains reference %s", name, c, m.labels[c], want)
			}
		}
	}
}
