package shiftand

import (
	"bytes"
	"math/rand"
	"testing"
)

// stepOracle runs the machine with the per-byte Step API and returns the
// match pairs — the reference the chunk kernels are checked against.
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

func TestKernelSelection(t *testing.T) {
	small, err := New([]Pattern{seqOf("abc")})
	if err != nil {
		t.Fatal(err)
	}
	if !small.HasKernel64() {
		t.Error("3-state machine should compile to the single-word kernel")
	}
	big, err := New([]Pattern{seqOf("[a-z]{40}"), seqOf("[a-z]{40}")})
	if err != nil {
		t.Fatal(err)
	}
	if big.HasKernel64() {
		t.Error("80-state machine must not claim the single-word kernel")
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

// TestKernel64ZeroAlloc is the fast-path contract: scanning a chunk on the
// single-word kernel performs no allocations at all.
func TestKernel64ZeroAlloc(t *testing.T) {
	m, err := New([]Pattern{seqOf("abc"), seqOf("[ab]cd")})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(m)
	input := bytes.Repeat([]byte("zabcdz"), 100)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset()
		r.ScanChunk(input, 0, func(p, end int) { sink += end })
	})
	if allocs != 0 {
		t.Errorf("kernel64 ScanChunk allocs/op = %v, want 0", allocs)
	}
	_ = sink
}

func TestMultiWordZeroAlloc(t *testing.T) {
	m, err := New([]Pattern{seqOf("[a-z]{40}"), seqOf("abcdefghijklmnopqrstuvwxyzabcdefghijklmn")})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(m)
	if m.HasKernel64() {
		t.Fatal("want multi-word machine")
	}
	input := bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz"), 20)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset()
		r.ScanChunk(input, 0, func(p, end int) { sink += end })
	})
	if allocs != 0 {
		t.Errorf("multi-word ScanChunk allocs/op = %v, want 0", allocs)
	}
	_ = sink
}

// BenchmarkKernel64 measures the single-word fast path; run with -benchmem
// to confirm 0 allocs/op.
func BenchmarkKernel64(b *testing.B) {
	m, err := New([]Pattern{seqOf("needle"), seqOf("ha[yz]stack")})
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
}

// BenchmarkStepLoop is the per-byte baseline the chunk kernel replaces.
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

// BenchmarkKernelMulti measures the batched multi-word kernel.
func BenchmarkKernelMulti(b *testing.B) {
	pats := []Pattern{
		seqOf("abcdefghijklmnopqrstuvwxyz"), seqOf("[a-z]{30}"),
		seqOf("0123456789012345678901234567890123456789"),
	}
	m, err := New(pats)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRunner(m)
	input := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 1489)
	sink := 0
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset()
		r.ScanChunk(input, 0, func(p, end int) { sink += end })
	}
	_ = sink
}
