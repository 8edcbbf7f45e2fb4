package shiftand

import (
	"bytes"
	"math/rand"
	"testing"
)

// stepOracle runs the machine with the per-byte Step API and returns the
// match pairs — the reference the chunk loop is checked against.
func stepOracle(m *Machine, input []byte) []MatchEnd {
	r := NewRunner(m)
	var out []MatchEnd
	for i, b := range input {
		for _, p := range r.Step(b) {
			out = append(out, MatchEnd{Pattern: p, End: i})
		}
	}
	return out
}

func sameMatches(a, b []MatchEnd) bool {
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

func TestKernelsAgreeWithStep(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
	}{
		{"single-word", []string{"abc", "a[bc].d", "xy"}},           // 12 states
		{"word-boundary", []string{"abcdefgh", "[a-h]{8}abcdefgh"}}, // spans >64 with the next
		{"multi-word", []string{
			"abcdefghij", "[a-j]{10}xyz", "0123456789", "[0-9]{20}",
			"qrstuvwxyz", "[k-t]{15}", "aaaaaaaaaaaaaaa",
		}},
	}
	rng := rand.New(rand.NewSource(3))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pats := make([]Pattern, len(tc.patterns))
			for i, p := range tc.patterns {
				pats[i] = seqOf(p)
			}
			m, err := New(pats)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 100; trial++ {
				n := 1 + rng.Intn(200)
				input := make([]byte, n)
				for i := range input {
					input[i] = byte('a' + rng.Intn(12))
				}
				if trial%3 == 0 { // plant matches
					for _, p := range tc.patterns {
						if len(p) < n && p[0] != '[' {
							copy(input[rng.Intn(n-len(p)):], p)
						}
					}
				}
				want := stepOracle(m, input)
				got := m.MatchEnds(input)
				gotPairs := make([]MatchEnd, len(got))
				copy(gotPairs, got)
				if !sameMatches(gotPairs, want) {
					t.Fatalf("trial %d: kernel %v, step oracle %v", trial, gotPairs, want)
				}
			}
		})
	}
}

func TestScanChunkResumesAcrossChunks(t *testing.T) {
	// A match split across ScanChunk calls must still be found: the state
	// word carries over.
	m, err := New([]Pattern{seqOf("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(m)
	input := []byte("xxabcdefyy")
	for cut := 1; cut < len(input); cut++ {
		r.Reset()
		var got []MatchEnd
		emit := func(p, end int) { got = append(got, MatchEnd{p, end}) }
		r.ScanChunk(input[:cut], 0, emit)
		r.ScanChunk(input[cut:], cut, emit)
		if len(got) != 1 || got[0] != (MatchEnd{0, 7}) {
			t.Errorf("cut %d: got %v, want [{0 7}]", cut, got)
		}
	}
}

// TestMultiWordZeroAlloc is the fast-path contract: scanning a chunk
// performs no allocations at all, whether the state is one word, two or
// more.
func TestMultiWordZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		patterns []string
	}{
		{"1word", []string{"abc", "[ab]cd"}},
		{"2words", []string{"[a-z]{40}", "abcdefghijklmnopqrstuvwxyzabcdefghijklmn"}},
		{"3words", []string{"[a-z]{70}", "abcdefghijklmnopqrstuvwxyz", "[a-z]{40}abcdefghijklmn"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pats := make([]Pattern, len(tc.patterns))
			for i, p := range tc.patterns {
				pats[i] = seqOf(p)
			}
			m, err := New(pats)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(m)
			input := bytes.Repeat([]byte("zabcdefghijklmnopqrstuvwxyz"), 20)
			sink := 0
			allocs := testing.AllocsPerRun(100, func() {
				r.Reset()
				r.ScanChunk(input, 0, func(p, end int) { sink += end })
			})
			if allocs != 0 {
				t.Errorf("%d states: ScanChunk allocs/op = %v, want 0", m.NumStates(), allocs)
			}
			_ = sink
		})
	}
}

// BenchmarkStepLoop is the per-byte baseline the chunk loop replaces.
func BenchmarkStepLoop(b *testing.B) {
	m, err := New([]Pattern{seqOf("needle"), seqOf("ha[yz]stack")})
	if err != nil {
		b.Fatal(err)
	}
	r := NewRunner(m)
	input := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 1489)
	copy(input[len(input)/2:], "needle")
	sink := 0
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset()
		for j := range input {
			for _, p := range r.Step(input[j]) {
				sink += p
			}
		}
	}
	_ = sink
}

// BenchmarkKernelMulti measures the chunk loop at one, two and three
// state words; run with -benchmem to confirm 0 allocs/op. The one-word
// case runs the machine BenchmarkStepLoop steps a byte at a time.
func BenchmarkKernelMulti(b *testing.B) {
	for _, bc := range []struct {
		name     string
		patterns []string
	}{
		{"1word", []string{"needle", "ha[yz]stack"}},
		{"2words", []string{"abcdefghijklmnopqrstuvwxyz", "[a-z]{30}", "needle", "ha[yz]stack"}},
		{"3words", []string{"abcdefghijklmnopqrstuvwxyz", "[a-z]{30}", "0123456789012345678901234567890123456789", "[a-z]{40}"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pats := make([]Pattern, len(bc.patterns))
			for i, p := range bc.patterns {
				pats[i] = seqOf(p)
			}
			m, err := New(pats)
			if err != nil {
				b.Fatal(err)
			}
			r := NewRunner(m)
			input := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 1489) // ~64 KiB
			copy(input[len(input)/2:], "needle")
			sink := 0
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset()
				r.ScanChunk(input, 0, func(p, end int) { sink += end })
			}
			_ = sink
		})
	}
}
