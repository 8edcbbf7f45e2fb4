package refmatch

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/prefilter"
	"repro/internal/regexast"
)

// compilePair compiles the same patterns with the prefilter on and off.
func compilePair(t testing.TB, patterns []string) (pf, plain *Matcher) {
	t.Helper()
	pf, err := Compile(context.Background(), patterns, Options{})
	if err != nil {
		t.Fatalf("compile (prefilter): %v", err)
	}
	plain, err = Compile(context.Background(), patterns, Options{DisablePrefilter: true})
	if err != nil {
		t.Fatalf("compile (plain): %v", err)
	}
	return pf, plain
}

// sortedMatches canonicalizes a match list: the Scan contract orders by
// End but leaves pattern order within one offset unspecified, so the
// differential comparison sorts on both.
func sortedMatches(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

func diffMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	g, w := sortedMatches(got), sortedMatches(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d matches vs %d\n got %v\nwant %v", label, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: match %d differs\n got %v\nwant %v", label, i, g, w)
		}
	}
}

// feedChunked streams input through a fresh session in the given chunk
// sizes and returns all matches including the end-anchored finals.
func feedChunked(m *Matcher, input []byte, chunks []int) []Match {
	s := m.NewSession()
	var out []Match
	pos := 0
	for _, n := range chunks {
		if n > len(input)-pos {
			n = len(input) - pos
		}
		out = append(out, s.Feed(input[pos:pos+n])...)
		pos += n
	}
	if pos < len(input) {
		out = append(out, s.Feed(input[pos:])...)
	}
	return append(out, s.Finish()...)
}

func TestPrefilterPartition(t *testing.T) {
	m, err := Compile(context.Background(), []string{"needle", "[a-z]+", "x[ab]y"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := m.PrefilterVerdicts()
	if !v[0].Prefilterable || v[1].Prefilterable || !v[2].Prefilterable {
		t.Errorf("verdicts = %v", v)
	}
	if m.PrefilterTier() == "" {
		t.Error("no prefilter tier")
	}
	plain, err := Compile(context.Background(), []string{"needle"}, Options{DisablePrefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.PrefilterTier() != "" {
		t.Error("DisablePrefilter still built a prefilter")
	}
	if v := plain.PrefilterVerdicts()[0]; v.Prefilterable || v.Reason == "" {
		t.Errorf("disabled verdict = %v", v)
	}
}

func TestPrefilterDifferentialScan(t *testing.T) {
	patterns := []string{
		"needle",        // prefiltered
		"x[ab]y",        // prefiltered via class expansion
		"[a-z]+needle",  // prefiltered (literal factor)
		"[a-n]{3}",      // always-on DFA (linear, no literal)
		"a{20,30}",      // nbva
		"(cat|dog)food", // dfa or nfa path
	}
	pf, plain := compilePair(t, patterns)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(400)
		input := make([]byte, n)
		for i := range input {
			input[i] = byte('a' + rng.Intn(6))
		}
		for _, plant := range []string{"needle", "xay", "catfood", strings.Repeat("a", 22)} {
			if len(plant) < n && rng.Intn(2) == 0 {
				copy(input[rng.Intn(n-len(plant)):], plant)
			}
		}
		diffMatches(t, fmt.Sprintf("trial %d", trial), pf.Scan(input), plain.Scan(input))
	}
}

// TestPrefilterChunkBoundaryLiteral is the deterministic regression for
// the hard streaming case: the mandatory literal is split across the
// chunk boundary, so neither chunk alone contains it. The prefilter's
// carried scanner state plus history replay must still find the match.
func TestPrefilterChunkBoundaryLiteral(t *testing.T) {
	patterns := []string{"needle", "[0-9]needle[0-9]"}
	pf, plain := compilePair(t, patterns)
	input := []byte("zzzz5needle7zzzzneedlezz")
	want := plain.Scan(input)
	if len(want) == 0 {
		t.Fatal("oracle found no matches; bad test input")
	}
	for cut := 1; cut < len(input); cut++ {
		got := feedChunked(pf, input, []int{cut})
		diffMatches(t, fmt.Sprintf("cut %d", cut), got, want)
	}
	// Also split into many tiny chunks: every literal byte on its own.
	ones := make([]int, len(input))
	for i := range ones {
		ones[i] = 1
	}
	diffMatches(t, "byte-at-a-time", feedChunked(pf, input, ones), want)
}

func TestPrefilterSessionStats(t *testing.T) {
	m, err := Compile(context.Background(), []string{"needle"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession()
	input := []byte(strings.Repeat(".", 1000) + "needle" + strings.Repeat(".", 1000))
	s.Feed(input)
	stats := s.PrefilterStats()
	if stats.LiteralHits != 1 {
		t.Errorf("LiteralHits = %d, want 1", stats.LiteralHits)
	}
	if stats.SkippedBytes == 0 || stats.SkippedBytes < int64(len(input))/2 {
		t.Errorf("SkippedBytes = %d, want most of %d", stats.SkippedBytes, len(input))
	}
	// A matcher with no prefiltered pattern reports zeros.
	plain, err := Compile(context.Background(), []string{"needle"}, Options{DisablePrefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.NewSession().PrefilterStats(); st != (prefilter.Stats{}) {
		t.Errorf("plain session stats = %+v, want zero", st)
	}
}

func TestScanIntoReuse(t *testing.T) {
	m, err := Compile(context.Background(), []string{"needle", "[a-n]{3}"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession()
	input := []byte("xxneedleabcyy")
	want := m.Scan(input)
	for i := 0; i < 3; i++ {
		got := s.ScanInto(input, nil)
		diffMatches(t, fmt.Sprintf("reuse %d", i), got, want)
	}
}

// FuzzPrefilterDifferential derives a small pattern set and an input from
// the fuzz payload, compiles it with the prefilter on and off — the
// windowed group's union DFAs against every linear pattern's always-on
// DFA — and requires identical match lists from whole-buffer scans and
// from chunked streaming with payload-chosen split points.
func FuzzPrefilterDifferential(f *testing.F) {
	f.Add("abc\nx[yz]w", "xxabcxywxx", uint8(3))
	f.Add("needle\n[a-c]{4}", "aaaneedlebbbb", uint8(5))
	f.Add("(cat|dog)\nfish+", "catfishdogfishh", uint8(1))
	f.Add("a{12,20}", strings.Repeat("a", 30), uint8(7))
	// Windows around "bcd" at 6 and 16 leave byte 11 out: the first ends
	// in "axbc", the second starts with "d", and only a reset at the gap
	// keeps a.bcd from matching across it.
	f.Add("a.bcd", "zzzzbcdaxbczdzbcdzzzz", uint8(0))
	f.Fuzz(func(t *testing.T, patblob, input string, cut uint8) {
		if len(input) > 1<<12 {
			return
		}
		var patterns []string
		for _, p := range strings.Split(patblob, "\n") {
			if p == "" || len(p) > 40 {
				continue
			}
			patterns = append(patterns, p)
			if len(patterns) == 4 {
				break
			}
		}
		if len(patterns) == 0 {
			return
		}
		// Both compiles must agree on validity.
		pf, errPF := Compile(context.Background(), patterns, Options{})
		plain, errPlain := Compile(context.Background(), patterns, Options{DisablePrefilter: true})
		if (errPF == nil) != (errPlain == nil) {
			t.Fatalf("compile disagreement: pf=%v plain=%v", errPF, errPlain)
		}
		if errPF != nil {
			return
		}
		data := []byte(input)
		want := sortedMatches(plain.Scan(data))
		got := sortedMatches(pf.Scan(data))
		if len(got) != len(want) {
			t.Fatalf("scan: %d matches vs %d\n got %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("scan: match %d differs\n got %v\nwant %v", i, got, want)
			}
		}
		// Chunked streaming against the same oracle, with the split stride
		// chosen by the payload (stride 1..len).
		stride := int(cut)%8 + 1
		var chunks []int
		for rem := len(data); rem > 0; rem -= stride {
			chunks = append(chunks, stride)
		}
		streamed := sortedMatches(feedChunked(pf, data, chunks))
		if len(streamed) != len(want) {
			t.Fatalf("stream stride %d: %d matches vs %d\n got %v\nwant %v",
				stride, len(streamed), len(want), streamed, want)
		}
		for i := range streamed {
			if streamed[i] != want[i] {
				t.Fatalf("stream stride %d: match %d differs\n got %v\nwant %v",
					stride, i, streamed, want)
			}
		}
	})
}

// TestWindowedCapMiss: a linear pattern the prefilter accepts (memchr on
// "a") but whose own DFA outgrows the cap — a[ab]{12}c has 8 193 rows —
// is a cap miss on the NBVA lane, as an NFA-mode one is: it matches what
// its NFA does, report for report, and keeps the set off ScanParallel.
// Members that fit alone but not together are packed in halves, and the
// matches of one End still come in pattern order.
func TestWindowedCapMiss(t *testing.T) {
	m := compilePar(t, []string{"a[ab]{12}c"}, Options{})
	if e, k := m.Engines()[0], m.Kernels()[0]; e != EngineNBVA || !strings.HasPrefix(k, "word64") || m.PrefilterTier() != "" {
		t.Fatalf("a[ab]{12}c runs on %v %q behind %q, want the NBVA word kernel and no prefilter", e, k, m.PrefilterTier())
	}
	nfa, err := automata.Glushkov(regexast.MustParse("a[ab]{12}c"), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	input := make([]byte, 4096)
	for i := range input {
		input[i] = "aab"[rng.Intn(3)]
		if i%97 == 96 {
			input[i] = 'c'
		}
	}
	var want []Match
	ref := automata.NewRunner(nfa)
	for i, b := range input {
		if ref.Step(b) {
			for k := ref.FinalsActive(); k > 0; k-- {
				want = append(want, Match{End: i})
			}
		}
	}
	if got := m.Scan(input); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("Scan: %d matches, reference NFA %d", len(got), len(want))
	}
	if err := m.Parallelizable(); FallbackReason(err) != ReasonNBVAEngine {
		t.Errorf("Parallelizable = %v, want %s", err, ReasonNBVAEngine)
	}

	// Each of these has a 5-row DFA, each half a union of 9 or 10 rows,
	// and all four one of 14.
	halves := []string{"abcd", "[ab]bcd", "a[bc]cd", "ab[cd]d"}
	m = compilePar(t, halves, Options{DFAStateCap: 10})
	for i, k := range m.Kernels() {
		if !strings.HasPrefix(k, "dfa-union behind ") {
			t.Fatalf("%q runs on %q, want a windowed union", halves[i], k)
		}
	}
	got := m.Scan([]byte("xxabcdxxbbcd"))
	want = []Match{{0, 5}, {1, 5}, {2, 5}, {3, 5}, {1, 11}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Scan = %v, want %v", got, want)
	}
	if first := m.kinds.win.g.first; !reflect.DeepEqual(first, []int{0, 2}) {
		t.Errorf("the group packed into unions from members %v, want halves from 0 and 2", first)
	}
	if got := feedChunked(m, []byte("xxabcdxxbbcd"), []int{3, 2, 4, 3}); !reflect.DeepEqual(got, want) {
		t.Errorf("Feed = %v, want %v", got, want)
	}
}
