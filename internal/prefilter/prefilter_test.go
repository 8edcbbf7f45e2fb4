package prefilter

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func lits(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// refHits returns the end offsets of every occurrence of every literal in
// input — the oracle the scanner representations are checked against.
func refHits(input []byte, lit [][]byte) []int {
	var ends []int
	for i := range input {
		for _, l := range lit {
			if i+1 >= len(l) && bytes.Equal(input[i+1-len(l):i+1], l) {
				ends = append(ends, i)
				break
			}
		}
	}
	return ends
}

// refWindows merges the hit windows like the stream should: radius w-1
// around each hit end, clamped to the input, adjacent/overlapping merged.
func refWindows(input []byte, lit [][]byte, w int) [][2]int {
	var out [][2]int
	for _, t := range refHits(input, lit) {
		a, b := t-w+1, t+w-1
		if a < 0 {
			a = 0
		}
		if b > len(input)-1 {
			b = len(input) - 1
		}
		if n := len(out); n > 0 && a <= out[n-1][1]+1 {
			if b > out[n-1][1] {
				out[n-1][1] = b
			}
			continue
		}
		out = append(out, [2]int{a, b})
	}
	return out
}

// collect feeds input to a fresh stream in the given chunk sizes and
// returns the delivered ranges as merged [start,end] spans plus the bytes
// actually delivered, reconstructed positionally.
func collect(t *testing.T, s *Set, input []byte, chunks []int) [][2]int {
	t.Helper()
	st := s.NewStream()
	type got struct{ a, b int }
	var ranges []got
	deliver := func(base int, data []byte) {
		// Delivered bytes must equal the stream bytes at those offsets.
		if !bytes.Equal(data, input[base:base+len(data)]) {
			t.Fatalf("delivered bytes at %d differ from stream: %q vs %q",
				base, data, input[base:base+len(data)])
		}
		if n := len(ranges); n > 0 && base == ranges[n-1].b+1 {
			ranges[n-1].b = base + len(data) - 1
			return
		}
		ranges = append(ranges, got{base, base + len(data) - 1})
	}
	pos := 0
	for _, n := range chunks {
		if n > len(input)-pos {
			n = len(input) - pos
		}
		st.Scan(input[pos:pos+n], deliver, func() {})
		pos += n
	}
	if pos < len(input) {
		st.Scan(input[pos:], deliver, func() {})
	}
	out := make([][2]int, len(ranges))
	for i, r := range ranges {
		out[i] = [2]int{r.a, r.b}
	}
	return out
}

func sameSpans(a, b [][2]int) bool {
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

func TestScannerRepresentations(t *testing.T) {
	cases := []struct {
		name string
		lits [][]byte
	}{
		{"memchr-single", lits("k")},
		{"byte-table", lits("a", "z", "#")},
		{"ac-multi", lits("needle", "pin", "na")},
		{"ac-overlap", lits("aa", "aaa")},
		{"ac-suffix", lits("she", "he", "hers")},
	}
	input := []byte("xxshersheyyaaaanaxneedlezz#pinkxx")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := 8
			s, err := NewSet(tc.lits, w)
			if err != nil {
				t.Fatal(err)
			}
			want := refWindows(input, tc.lits, w)
			// Whole-buffer and two chunkings must all deliver the same spans.
			for _, chunks := range [][]int{{len(input)}, {1}, {5, 3, 9}} {
				sizes := chunks
				if len(sizes) == 1 && sizes[0] == 1 {
					sizes = make([]int, len(input))
					for i := range sizes {
						sizes[i] = 1
					}
				}
				got := collect(t, s, input, sizes)
				if !sameSpans(got, want) {
					t.Errorf("chunks %v: spans %v, want %v", chunks, got, want)
				}
			}
		})
	}
}

func TestStreamFindsSplitLiterals(t *testing.T) {
	// The literal straddles every chunk boundary we try: the AC state must
	// carry across Scan calls, and the window must replay history bytes.
	s, err := NewSet(lits("needle"), 10)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("aaaaaaaaaaneedlebbbbbbbbbb")
	want := refWindows(input, lits("needle"), 10)
	for cut := 1; cut < len(input)-1; cut++ {
		got := collect(t, s, input, []int{cut, len(input) - cut})
		if !sameSpans(got, want) {
			t.Errorf("cut %d: spans %v, want %v", cut, got, want)
		}
	}
}

func TestStreamResetOnGap(t *testing.T) {
	// Two far-apart hits: the executor must call reset between the two
	// windows (a gap no match can span) and never otherwise mid-window.
	s, err := NewSet(lits("k"), 3)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("..k.........k..")
	st := s.NewStream()
	resets := 0
	var spans [][2]int
	st.Scan(input, func(base int, data []byte) {
		spans = append(spans, [2]int{base, base + len(data) - 1})
	}, func() { resets++ })
	want := refWindows(input, lits("k"), 3)
	if !sameSpans(spans, want) {
		t.Fatalf("spans %v, want %v", spans, want)
	}
	if resets != 1 {
		t.Errorf("resets = %d, want 1 (one gap between the two windows)", resets)
	}
}

func TestStreamStats(t *testing.T) {
	s, err := NewSet(lits("kk"), 4)
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewStream()
	input := []byte(strings.Repeat(".", 40) + "kk" + strings.Repeat(".", 40))
	st.Scan(input, func(int, []byte) {}, func() {})
	stats := st.Stats()
	if stats.LiteralHits != 1 {
		t.Errorf("LiteralHits = %d, want 1", stats.LiteralHits)
	}
	if stats.Windows != 1 {
		t.Errorf("Windows = %d, want 1", stats.Windows)
	}
	// The hit ends at offset 41; with w=4 the window is [38, 44]: 7 bytes
	// scanned, the rest skipped.
	if stats.ScannedBytes != 7 {
		t.Errorf("ScannedBytes = %d, want 7", stats.ScannedBytes)
	}
	if stats.SkippedBytes != int64(len(input))-7 {
		t.Errorf("SkippedBytes = %d, want %d", stats.SkippedBytes, len(input)-7)
	}
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(nil, 4); err == nil {
		t.Error("empty literal set accepted")
	}
	if _, err := NewSet(lits(""), 4); err == nil {
		t.Error("empty literal accepted")
	}
	if _, err := NewSet(lits("toolong"), 3); err == nil {
		t.Error("literal longer than window accepted")
	}
	if _, err := NewSet(lits("ab"), 0); err == nil {
		t.Error("zero window accepted")
	}
}

// TestStreamRandomChunking drives random inputs with planted literals
// through random chunk splits and checks the delivered spans against the
// whole-buffer oracle each time.
func TestStreamRandomChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	litSet := lits("abc", "xyzw", "q")
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		input := make([]byte, n)
		for i := range input {
			input[i] = byte('a' + rng.Intn(4)) // dense 'a'..'d' hits "abc" sometimes
		}
		for p := 0; p+4 < n && rng.Intn(3) == 0; p += 7 + rng.Intn(20) {
			copy(input[p:], "xyzw")
		}
		w := 4 + rng.Intn(8)
		s, err := NewSet(litSet, w)
		if err != nil {
			t.Fatal(err)
		}
		var chunks []int
		rem := n
		for rem > 0 {
			c := 1 + rng.Intn(rem)
			chunks = append(chunks, c)
			rem -= c
		}
		want := refWindows(input, litSet, w)
		got := collect(t, s, input, chunks)
		if !sameSpans(got, want) {
			t.Fatalf("trial %d chunks %v:\n got %v\nwant %v", trial, chunks, got, want)
		}
	}
}

func BenchmarkStreamScan(b *testing.B) {
	for _, density := range []int{0, 1, 10} {
		b.Run(fmt.Sprintf("hits=%d", density), func(b *testing.B) {
			s, err := NewSet(lits("needle"), 16)
			if err != nil {
				b.Fatal(err)
			}
			input := bytes.Repeat([]byte("the quick brown fox "), 3200) // 64 KiB
			for i := 0; i < density; i++ {
				copy(input[i*(len(input)/(density+1)):], "needle")
			}
			st := s.NewStream()
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Reset()
				st.Scan(input, func(int, []byte) {}, func() {})
			}
		})
	}
}

// BenchmarkTierOneByte is the evidence row for the memchr and byte-table
// tiers, which no internal/workload dataset reaches (every dataset
// literal is longer than a byte): one and four 1-byte literals over a
// 1 MiB body with a hit every 64 and every 4 096 bytes, tier selection
// (NewSet) against the Aho-Corasick DFA forced onto the same set
// (NewSetAC). The hit count is a reported metric and must equal the
// planted count, so a scanner that skips work cannot look fast.
func BenchmarkTierOneByte(b *testing.B) {
	for _, nlits := range []int{1, 4} {
		set := lits("\x01", "\x02", "\x03", "\x04")[:nlits]
		for _, every := range []int{64, 4096} {
			body := bytes.Repeat([]byte{'.'}, 1<<20)
			for i, k := every-1, 0; i < len(body); i, k = i+every, k+1 {
				body[i] = set[k%nlits][0]
			}
			for _, build := range []func([][]byte, int) (*Set, error){NewSet, NewSetAC} {
				s, err := build(set, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("lits=%d/every=%d/%s", nlits, every, s.Tier()), func(b *testing.B) {
					st := s.NewStream()
					b.SetBytes(int64(len(body)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st.Reset()
						st.Scan(body, func(int, []byte) {}, func() {})
					}
					hits := st.Stats().LiteralHits
					if want := int64(len(body) / every); hits != want {
						b.Fatalf("%d hits, planted %d", hits, want)
					}
					b.ReportMetric(float64(hits), "hits/op")
				})
			}
		}
	}
}
