package shiftand

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/charclass"
)

// randMachineWidth builds a machine with exactly total packed states,
// split into patterns of random lengths, over a small alphabet so random
// inputs light up states often.
func randMachineWidth(t testing.TB, rng *rand.Rand, total int) *Machine {
	var pats []Pattern
	left := total
	for left > 0 {
		n := 1 + rng.Intn(6)
		if n > left {
			n = left
		}
		var p Pattern
		for i := 0; i < n; i++ {
			var c charclass.Class
			for b := 0; b < 6; b++ {
				if rng.Intn(2) == 0 {
					c.Add(byte('a' + b))
				}
			}
			if c.Count() == 0 {
				c.Add(byte('a' + rng.Intn(6)))
			}
			p = append(p, c)
		}
		pats = append(pats, p)
		left -= n
	}
	m, err := New(pats)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != total {
		t.Fatalf("built %d states, want %d", m.NumStates(), total)
	}
	return m
}

// stepEnds runs the per-byte Step path from reset and collects every
// (pattern, end) pair — the golden reference for the chunk loop.
func stepEnds(m *Machine, input []byte) []MatchEnd {
	r := NewRunner(m)
	r.Reset()
	var out []MatchEnd
	for i, b := range input {
		for _, p := range r.Step(b) {
			out = append(out, MatchEnd{Pattern: p, End: i})
		}
	}
	return out
}

// TestWordKernelGoldenEquivalence holds the chunk loop to the per-byte
// Step loop across state widths of one to four words and random inputs.
func TestWordKernelGoldenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, total := range []int{1, 3, 63, 64, 65, 96, 127, 128, 129, 200} {
		for trial := 0; trial < 10; trial++ {
			m := randMachineWidth(t, rng, total)
			input := make([]byte, rng.Intn(300))
			for i := range input {
				input[i] = byte('a' + rng.Intn(6))
			}
			want := stepEnds(m, input)
			got := m.MatchEnds(input)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("width %d trial %d: kernel %v, Step %v", total, trial, got, want)
			}
		}
	}
}

// TestWordKernelUnalignedChunks feeds the same input in every split
// position and checks hits and carried state against the whole-buffer
// scan.
func TestWordKernelUnalignedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, total := range []int{40, 100, 160} {
		r := NewRunner(randMachineWidth(t, rng, total))
		input := make([]byte, 61)
		for i := range input {
			input[i] = byte('a' + rng.Intn(6))
		}
		r.Reset()
		var whole []MatchEnd
		r.ScanChunk(input, 0, func(p, e int) { whole = append(whole, MatchEnd{p, e}) })
		for split := 0; split <= len(input); split++ {
			r.Reset()
			var got []MatchEnd
			r.ScanChunk(input[:split], 0, func(p, e int) { got = append(got, MatchEnd{p, e}) })
			r.ScanChunk(input[split:], split, func(p, e int) { got = append(got, MatchEnd{p, e}) })
			if fmt.Sprint(got) != fmt.Sprint(whole) {
				t.Fatalf("width %d split %d: %v, want %v", total, split, got, whole)
			}
		}
	}
}

// FuzzWordKernelEquivalence fuzzes machine shape and input together: the
// seed bytes select the state width (one to four words) and the input;
// the chunk loop's output must equal the per-byte Step loop.
func FuzzWordKernelEquivalence(f *testing.F) {
	f.Add(uint8(64), []byte("abcabcddd"))
	f.Add(uint8(100), []byte("aaaaaaaaaaaaaaaaa"))
	f.Add(uint8(200), []byte("fedcba"))
	f.Fuzz(func(t *testing.T, width uint8, input []byte) {
		total := 1 + int(width)%200
		rng := rand.New(rand.NewSource(int64(total)))
		m := randMachineWidth(t, rng, total)
		norm := make([]byte, len(input))
		for i, b := range input {
			norm[i] = 'a' + b%6
		}
		want := stepEnds(m, norm)
		got := m.MatchEnds(norm)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("width %d: kernel %v, Step %v", total, got, want)
		}
	})
}
