package refmatch

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compile"
)

func TestEngineSelection(t *testing.T) {
	m, err := Compile(context.Background(), []string{
		"abcdef",     // linear -> a union DFA behind the prefilter
		"a[bc].d?",   // linear with optional tail -> a union DFA behind the prefilter
		"ab{10,48}c", // large bounded repetition -> nbva
		"a(b|c)*d",   // small general -> dfa fast path
		"x{100}",     // large exact bound -> nbva
		"(ab|cd)+x",  // small general -> dfa fast path
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Engine{EngineDFA, EngineDFA, EngineNBVA, EngineDFA, EngineNBVA, EngineDFA}
	for i, e := range m.Engines() {
		if e != want[i] {
			t.Errorf("pattern %d engine = %v, want %v", i, e, want[i])
		}
	}
	for i, k := range m.Kernels()[:2] {
		if !strings.HasPrefix(k, "dfa-union behind ") {
			t.Errorf("pattern %d kernel = %q, want a windowed union", i, k)
		}
	}
}

func TestScanMixedEngines(t *testing.T) {
	m, err := Compile(context.Background(), []string{"cat", "d{3}g", "a(x|y)*b"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("the cat saw dddg and axyxb")
	matches := m.Scan(input)
	found := map[int]bool{}
	for _, match := range matches {
		found[match.Pattern] = true
	}
	for p := 0; p < 3; p++ {
		if !found[p] {
			t.Errorf("pattern %d not found; matches=%v", p, matches)
		}
	}
	if m.Count(input) != len(matches) {
		t.Error("Count disagrees with Scan")
	}
}

func TestMatchOffsets(t *testing.T) {
	m, err := Compile(context.Background(), []string{"ab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matches := m.Scan([]byte("abab"))
	if len(matches) != 2 || matches[0].End != 1 || matches[1].End != 3 {
		t.Errorf("matches = %v", matches)
	}
}

func TestAnchoredFallsBackToAutomata(t *testing.T) {
	m, err := Compile(context.Background(), []string{"^abc", "abc$"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Engines() {
		if e != EngineDFA {
			t.Errorf("anchored pattern runs on %v, want its DFA", e)
		}
	}
	if got := m.Count([]byte("abc")); got != 2 {
		t.Errorf("Count(abc) = %d", got)
	}
	if got := m.Count([]byte("xabcx")); got != 0 {
		t.Errorf("Count(xabcx) = %d, want 0", got)
	}
}

func TestCompileError(t *testing.T) {
	_, err := Compile(context.Background(), []string{"ok", "("}, Options{})
	if err == nil {
		t.Fatal("expected parse error")
	}
	var pe *compile.Error
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *compile.Error", err, err)
	}
	if pe.Index != 1 || pe.Pattern != "(" || pe.Code != compile.DiagParseError {
		t.Errorf("pattern error = %+v, want index 1 pattern ( code parse_error", pe)
	}
	// The first failing pattern (by index) is reported even when the
	// per-pattern builds fan out across workers.
	_, err = Compile(context.Background(), []string{"ok", "(", ")"}, parallelism(4))
	pe = nil
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Errorf("parallel compile error = %v, want *compile.Error at index 1", err)
	}
}

func parallelism(workers int) Options {
	return Options{Options: compile.Options{Parallelism: workers}}
}

// TestCompileParallelismEquivalent: the worker count is a throughput
// knob, never a semantic one — engine selection and match results are
// identical at any Parallelism.
func TestCompileParallelismEquivalent(t *testing.T) {
	pats := sessionTestPatterns
	input := []byte("the cat abbbbbbbbbbbbc dddg axyb start end")
	serial, err := Compile(context.Background(), pats, parallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := Compile(context.Background(), pats, parallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := par.Engines(), serial.Engines(); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: engines %v != serial %v", workers, got, want)
		}
		got, want := par.Scan(input), serial.Scan(input)
		sortMatches(got)
		sortMatches(want)
		if !matchesEqual(got, want) {
			t.Fatalf("parallelism %d: matches %v != serial %v", workers, got, want)
		}
	}
}

// TestPropAgainstStdlib fuzzes mixed pattern sets against the stdlib
// regexp engine on ASCII inputs.
func TestPropAgainstStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(2025))
	atoms := []string{"a", "b", "c", "[ab]", "[b-d]", "."}
	genPattern := func() string {
		var sb strings.Builder
		n := r.Intn(4) + 1
		for i := 0; i < n; i++ {
			a := atoms[r.Intn(len(atoms))]
			switch r.Intn(6) {
			case 0:
				sb.WriteString(a + "*")
			case 1:
				sb.WriteString(a + "?")
			case 2:
				lo := r.Intn(3) + 2
				hi := lo + r.Intn(3)
				sb.WriteString(a + "{" + itoa(lo) + "," + itoa(hi) + "}")
			case 3:
				sb.WriteString("(" + a + "|" + atoms[r.Intn(len(atoms))] + ")")
			default:
				sb.WriteString(a)
			}
		}
		return sb.String()
	}
	for trial := 0; trial < 120; trial++ {
		var pats []string
		for i := 0; i < 3; i++ {
			pats = append(pats, genPattern())
		}
		m, err := Compile(context.Background(), pats, Options{})
		if err != nil {
			t.Fatalf("compile %v: %v", pats, err)
		}
		oracles := make([]*regexp.Regexp, len(pats))
		for i, p := range pats {
			// (?s) so '.' matches everything, matching our Any().
			oracles[i] = regexp.MustCompile("(?s)" + p)
		}
		for rep := 0; rep < 10; rep++ {
			input := make([]byte, r.Intn(20))
			for i := range input {
				input[i] = byte('a' + r.Intn(4))
			}
			got := map[int]bool{}
			for _, match := range m.Scan(input) {
				got[match.Pattern] = true
			}
			for i, o := range oracles {
				want := o.Match(input)
				// Nullable patterns: stdlib matches empty anywhere; our
				// streaming semantics reports no explicit match step for
				// pure-empty matches mid-stream. Align by checking
				// non-empty matches only.
				if want {
					loc := o.FindIndex(input)
					if loc != nil && loc[0] == loc[1] {
						continue // empty-width match; semantics differ by design
					}
				}
				if got[i] != want {
					t.Fatalf("patterns %v input %q: pattern %d ours=%v stdlib=%v",
						pats, input, i, got[i], want)
				}
			}
		}
	}
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

func BenchmarkScan100Patterns(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	var pats []string
	for i := 0; i < 100; i++ {
		var sb strings.Builder
		for j := 0; j < r.Intn(8)+3; j++ {
			sb.WriteByte(byte('a' + r.Intn(26)))
		}
		pats = append(pats, sb.String())
	}
	m, err := Compile(context.Background(), pats, Options{})
	if err != nil {
		b.Fatal(err)
	}
	input := make([]byte, 64*1024)
	for i := range input {
		input[i] = byte('a' + r.Intn(26))
	}
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Count(input)
	}
}

// BenchmarkAnchoredSets scans 1 MiB with three general patterns in four
// forms: plain, start-anchored, end-anchored and starred (so nullable).
// Every form runs on dfa-table, so the four should scan at about one
// speed; ns/B is the scan time per input byte.
func BenchmarkAnchoredSets(b *testing.B) {
	base := []string{"abc[0-9]+def", "x(y|z)*q", "[a-f]+9z"}
	r := rand.New(rand.NewSource(1))
	input := make([]byte, 1<<20)
	for i := range input {
		input[i] = "abcdefxyzq0129 "[r.Intn(15)]
	}
	for _, form := range []struct{ name, pre, post string }{{"plain", "", ""}, {"start", "^", ""}, {"end", "", "$"}, {"star", "(", ")*"}} {
		patterns := make([]string, len(base))
		for i, p := range base {
			patterns[i] = form.pre + p + form.post
		}
		m := compilePar(b, patterns, Options{})
		if k := m.Kernels(); !reflect.DeepEqual(k, []string{"dfa-table", "dfa-table", "dfa-table"}) {
			b.Fatalf("%q: kernels %q", patterns, k)
		}
		s, dst := m.NewSession(), []Match(nil)
		b.Run(form.name, func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				dst = s.ScanInto(input, dst[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(input)), "ns/B")
		})
	}
}

func TestDFAFastPathAgreesWithNFA(t *testing.T) {
	// The same pattern set with the DFA path disabled must produce
	// identical matches.
	patterns := []string{"a(b|c)*d", "(ab|cd)+x", "m.n"}
	fast, err := Compile(context.Background(), patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Compile(context.Background(), patterns, Options{DFAStateCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	hasDFA := false
	for _, e := range fast.Engines() {
		if e == EngineDFA {
			hasDFA = true
		}
	}
	if !hasDFA {
		t.Fatal("fast matcher never used the DFA path")
	}
	for _, e := range slow.Engines() {
		if e == EngineDFA {
			t.Fatal("DFA path not disabled")
		}
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		input := make([]byte, r.Intn(40))
		for i := range input {
			input[i] = byte("abcdmnx."[r.Intn(8)])
		}
		a := fast.Scan(input)
		b := slow.Scan(input)
		if len(a) != len(b) {
			t.Fatalf("input %q: fast %v, slow %v", input, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("input %q: fast %v, slow %v", input, a, b)
			}
		}
	}
}
