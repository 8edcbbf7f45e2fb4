package refmatch

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/prefilter"
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
		"[a-n]{3}",      // always-on shift-and (no literal)
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
// the fuzz payload, compiles it with the prefilter on and off, and
// requires identical match sets from whole-buffer scans and from chunked
// streaming with payload-chosen split points.
func FuzzPrefilterDifferential(f *testing.F) {
	f.Add("abc\nx[yz]w", "xxabcxywxx", uint8(3))
	f.Add("needle\n[a-c]{4}", "aaaneedlebbbb", uint8(5))
	f.Add("(cat|dog)\nfish+", "catfishdogfishh", uint8(1))
	f.Add("a{12,20}", strings.Repeat("a", 30), uint8(7))
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
