package nbva

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/charclass"
)

// kernelAlphabet is the alphabet every kernel differential test draws
// from: small, so classes overlap and vectors stay alive.
const kernelAlphabet = 4

// kernelSizes are the vector lengths around the word boundaries the
// kernel's multi-word shift has to get right.
var kernelSizes = []int{1, 2, 63, 64, 65, 128, 450}

// handBV builds x σ{size} y by hand — Construct never emits a one-bit
// vector — with the BV-STE itself reporting, so a read that succeeds
// fires with nothing after it.
func handBV(size int, read ReadAction) *Machine {
	return &Machine{
		States: []STE{
			{Class: charclass.Of('a'), Follow: []int{1}},
			{Class: charclass.Of('b'), Follow: []int{2}, BV: &BVSpec{Size: size, Read: read}},
			{Class: charclass.Of('c')},
		},
		Initial: []int{0},
		Final:   []int{1, 2},
	}
}

// randomMachine draws a machine the constructor would never build: random
// follow sets (BV-STEs that re-enter themselves, several initial and
// final states), random vector sizes and read actions.
func randomMachine(r *rand.Rand) *Machine {
	n := 1 + r.Intn(10)
	m := &Machine{StartAnchored: r.Intn(4) == 0}
	for i := 0; i < n; i++ {
		var s STE
		for b := 0; b < kernelAlphabet; b++ {
			if r.Intn(2) == 0 {
				s.Class.Add(byte('a' + b))
			}
		}
		if s.Class.Count() == 0 {
			s.Class.Add(byte('a' + r.Intn(kernelAlphabet)))
		}
		for q := 0; q < n; q++ {
			if r.Intn(3) == 0 {
				s.Follow = append(s.Follow, q)
			}
		}
		if r.Intn(3) == 0 {
			s.BV = &BVSpec{Size: kernelSizes[r.Intn(len(kernelSizes))], Read: ReadAction(r.Intn(2))}
		}
		m.States = append(m.States, s)
		if r.Intn(3) == 0 || (i == n-1 && len(m.Initial) == 0) {
			m.Initial = append(m.Initial, i)
		}
		if r.Intn(3) == 0 {
			m.Final = append(m.Final, i)
		}
	}
	return m
}

// patternCases are the machine shapes Construct builds.
func patternCases(t testing.TB) []*Machine {
	return []*Machine{
		compile(t, "ab{5}c", 1),        // r(n)
		compile(t, "ab{0,5}c", 1),      // rAll
		compile(t, "b(a{7}|c{5})b", 1), // two BV-STEs, alternated
		compile(t, "ab{3}c{0,4}d", 1),  // two BV-STEs, chained
		compile(t, ".a{2}b", 1),        // entered on every byte
		compile(t, "[ab]{70}c", 1),     // two-word vector, wide class
		compile(t, "ab{10,48}c", 4),    // split range
		compile(t, "^ab{3}c", 1),       // start-anchored
		compile(t, "ab{3}c$", 1),       // end-anchored
		compile(t, "^a{3}$", 1),        // both, BV-STE initial and final
		compile(t, "ab{4}", 1),         // BV-STE is the only final
		compile(t, "a{0,3}", 1),        // nullable, BV-STE initial and final
		compile(t, "a(b{2}|c)d{0,3}", 1),
	}
}

// kernelCases are the named machine shapes of the differential tests:
// the constructed ones, then a hand-built one per vector size and read.
func kernelCases(t testing.TB) []*Machine {
	ms := patternCases(t)
	for _, size := range kernelSizes {
		ms = append(ms, handBV(size, ReadExact), handBV(size, ReadAll))
	}
	return ms
}

// stepFires is the reference: per byte, how many reporting STEs fired
// according to Runner.Step and FinalsFired. CounterRunner, the independent
// second implementation, must agree on whether anything fired.
func stepFires(t *testing.T, m *Machine, input []byte) []int {
	t.Helper()
	r, c := NewRunner(m), NewCounterRunner(m)
	fires := make([]int, len(input))
	for i, b := range input {
		hit := r.Step(b)
		if hit {
			fires[i] = r.FinalsFired()
		}
		if hit != (fires[i] > 0) {
			t.Fatalf("Runner: Step=%v but FinalsFired=%d at %d", hit, r.FinalsFired(), i)
		}
		if c.Step(b) != hit {
			t.Fatalf("Runner and CounterRunner disagree at %d of %q\n%s", i, input, m)
		}
	}
	return fires
}

// kernelFires feeds input to a fresh kernel state cut at the given
// offsets and counts emits per byte.
func kernelFires(t *testing.T, m *Machine, input []byte, cuts []int) []int {
	t.Helper()
	k := NewKernel(m)
	if k == nil {
		t.Fatalf("no kernel for a %d-state machine", m.NumStates())
	}
	s := k.NewState(make([]uint64, k.Words()))
	fires := make([]int, len(input))
	prev := 0
	for _, cut := range append(cuts, len(input)) {
		s.ScanChunk(input[prev:cut], prev, func(end int) {
			if end < prev || end >= cut {
				t.Fatalf("emit(%d) outside chunk [%d,%d)", end, prev, cut)
			}
			fires[end]++
		})
		prev = cut
	}
	return fires
}

// randomCuts returns sorted chunk boundaries inside [0,n].
func randomCuts(r *rand.Rand, n int) []int {
	var cuts []int
	for at := 0; n > 0 && r.Intn(4) != 0; {
		at += r.Intn(n - at + 1)
		cuts = append(cuts, at)
	}
	return cuts
}

func checkKernel(t *testing.T, m *Machine, input []byte, cuts []int) {
	t.Helper()
	want := stepFires(t, m, input)
	got := kernelFires(t, m, input, cuts)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("input %q cuts %v:\n kernel %v\n step   %v\n%s", input, cuts, got, want, m)
	}
}

// kernelInput mixes noise with runs long enough to fill, read and
// overflow the vectors of m.
func kernelInput(r *rand.Rand, m *Machine) []byte {
	var b []byte
	for len(b) < 64+r.Intn(256) {
		if r.Intn(3) == 0 {
			n := 1 + r.Intn(8)
			for _, s := range m.States {
				if s.BV != nil && r.Intn(2) == 0 {
					n = s.BV.Size - 2 + r.Intn(5)
				}
			}
			b = append(b, strings.Repeat(string(rune('a'+r.Intn(kernelAlphabet))), max(n, 0))...)
		}
		b = append(b, byte('a'+r.Intn(kernelAlphabet)))
	}
	return b
}

func TestKernelMatchesStep(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	machines := kernelCases(t)
	for i := 0; i < 300; i++ {
		machines = append(machines, randomMachine(r))
	}
	for _, m := range machines {
		for trial := 0; trial < 8; trial++ {
			input := kernelInput(r, m)
			checkKernel(t, m, input, randomCuts(r, len(input)))
		}
	}
}

// TestKernelEverySplit cuts one input at every offset, so a live vector,
// a pending entry and an idle machine all get carried across a boundary.
func TestKernelEverySplit(t *testing.T) {
	for _, m := range patternCases(t) {
		input := []byte("xabbbbbcabbbcccdbaaaaaaabbcccccbaab" + strings.Repeat("b", 50) + "c")
		for cut := 0; cut <= len(input); cut++ {
			checkKernel(t, m, input, []int{cut})
		}
	}
}

func TestKernelReset(t *testing.T) {
	m := compile(t, "ab{5}c", 1)
	k := NewKernel(m)
	s := k.NewState(make([]uint64, k.Words()))
	n := 0
	count := func(int) { n++ }
	s.ScanChunk([]byte("abbbb"), 0, count)
	s.Reset()
	s.ScanChunk([]byte("bc"), 0, count)
	if n != 0 {
		t.Errorf("a vector survived Reset: %d fires", n)
	}
	s.Reset()
	s.ScanChunk([]byte("abbbbbc"), 0, count)
	if n != 1 {
		t.Errorf("fires after Reset = %d, want 1", n)
	}
}

func TestKernelStateLimit(t *testing.T) {
	wide := &Machine{Initial: []int{0}, Final: []int{MaxKernelStates}}
	for i := 0; i <= MaxKernelStates; i++ {
		wide.States = append(wide.States, STE{Class: charclass.Of('a'), Follow: []int{min(i+1, MaxKernelStates)}})
	}
	if NewKernel(wide) != nil {
		t.Errorf("kernel built for %d control states", wide.NumStates())
	}
	wide.States, wide.Final = wide.States[:MaxKernelStates], []int{MaxKernelStates - 1}
	wide.States[MaxKernelStates-1].Follow = nil
	checkKernel(t, wide, []byte(strings.Repeat("a", 70)+"b"+strings.Repeat("a", 64)), []int{33})
}

func TestKernelZeroAlloc(t *testing.T) {
	m := compile(t, "ab{100}c{0,30}d", 1)
	k := NewKernel(m)
	s := k.NewState(make([]uint64, k.Words()))
	input := []byte(strings.Repeat("xa"+strings.Repeat("b", 100)+"ccd", 20))
	n := 0
	emit := func(int) { n++ }
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		s.ScanChunk(input, 0, emit)
	})
	if allocs != 0 || n == 0 {
		t.Errorf("ScanChunk: %v allocs per run (want 0), %d fires (want >0)", allocs, n)
	}
}

// TestKernelSkipChoice: an idle machine skips with bytes.IndexByte when its
// start class is one byte, and with the table loop when it has several
// bytes or, start-anchored, none.
func TestKernelSkipChoice(t *testing.T) {
	for _, c := range []struct {
		pattern string
		memchr  bool
	}{
		{"ab{5}c", true},
		{"a{3}b", true},      // the start STE is a BV-STE
		{"(a|ab{4})c", true}, // two start STEs, one byte
		{"[ab]{70}c", false},
		{".a{2}b", false},
		{"^ab{3}c", false},
	} {
		if got := NewKernel(compile(t, c.pattern, 1)).Memchr(); got != c.memchr {
			t.Errorf("%s: Memchr() = %v, want %v", c.pattern, got, c.memchr)
		}
	}
}

// TestKernelSkipEdges holds the memchr skip to Runner.Step where its
// search ends: the start byte first or last in a chunk, a whole chunk
// without it, and idle gaps either side of IndexByte's 16-, 32- and
// 64-byte vector thresholds.
func TestKernelSkipEdges(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for _, pattern := range []string{"ab{3}c", "ab{0,5}c", "a{3}b", "ab{20,48}c"} {
		m := compile(t, pattern, 4)
		if !NewKernel(m).Memchr() {
			t.Fatalf("%s: no memchr skip", pattern)
		}
		for _, gap := range []int{0, 1, 15, 16, 31, 32, 63, 64, 65} {
			var input []byte
			var starts []int
			for _, run := range []string{"abbbc", "aaab", "a" + strings.Repeat("b", 30) + "c", "a", "ab"} {
				input = append(input, strings.Repeat("x", gap)...)
				starts = append(starts, len(input))
				input = append(input, run...)
			}
			input = append(input, strings.Repeat("x", gap)...)
			// Cut before each start byte, after it, and around each gap, so
			// the gap is a whole chunk without one.
			var first, last, gaps []int
			for _, at := range starts {
				first = append(first, at)
				last = append(last, at+1)
				gaps = append(gaps, at-gap, at)
			}
			for _, cuts := range [][]int{nil, first, last, gaps} {
				checkKernel(t, m, input, cuts)
			}
			for trial := 0; trial < 20; trial++ {
				checkKernel(t, m, input, randomCuts(r, len(input)))
			}
		}
	}
}

// TestKernelPairGate holds the pair gate to Runner.Step: an idle machine
// skips its start byte when the byte after it enters none of the STEs the
// start byte enabled. The gate is off when a start STE is a BV-STE or a
// final, since the start byte alone then sets a vector or fires. The edges
// are the start byte last in a chunk, with a live or a dead successor fed
// next; a dead pair whose successor is the start byte itself, which must
// wake; and dead pairs at bytes.IndexByte's 16-, 32- and 64-byte vector
// thresholds. Mutants seen failing here: resuming the search at i+2 (the
// second 'a' of "aabbbc" is lost) and letting a chunk's last byte skip
// (a match cut after its start byte is lost).
func TestKernelPairGate(t *testing.T) {
	for _, c := range []struct {
		pattern string
		gate    bool
	}{
		{"ab{5}c", true},
		{"(a|ab{4})c", true},
		{"a{3}b", false},    // the start STE is a BV-STE
		{"a|ab{3}c", false}, // a start STE is final
	} {
		if got := NewKernel(compile(t, c.pattern, 1)).next != 0; got != c.gate {
			t.Errorf("%s: pair gate %v, want %v", c.pattern, got, c.gate)
		}
	}
	m := compile(t, "ab{3}c", 1)
	if fires := kernelFires(t, m, []byte("aabbbc"), nil); fmt.Sprint(fires) != "[0 0 0 0 0 1]" {
		t.Errorf("ab{3}c over aabbbc fires %v, want one at 5", fires)
	}
	r := rand.New(rand.NewSource(47))
	for _, pattern := range []string{"ab{3}c", "ab{0,5}c", "(a|ab{4})c", "ab{20,48}c", "a|ab{3}c"} {
		m := compile(t, pattern, 4)
		checkKernel(t, m, []byte("aabbbc"), nil)
		// The start byte last in a chunk, a live or a dead successor next.
		for _, input := range []string{"xxa" + "bbbc", "xxa" + "xabbbc", "xxa" + "abbbc"} {
			for cut := 0; cut <= len(input); cut++ {
				checkKernel(t, m, []byte(input), []int{cut})
			}
		}
		for _, gap := range []int{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65} {
			var input []byte
			for _, run := range []string{"ax", "aabbbc", "ax", "abbbbc", "aa", "ab"} {
				input = append(input, strings.Repeat("x", gap)...)
				input = append(input, run...)
			}
			input = append(input, strings.Repeat("ax", gap)...)
			checkKernel(t, m, input, nil)
			for trial := 0; trial < 20; trial++ {
				checkKernel(t, m, input, randomCuts(r, len(input)))
			}
		}
	}
}

// TestRunnerResetClearsStepStats pins that the per-step statistics of one
// stream do not leak into the next through Reset.
func TestRunnerResetClearsStepStats(t *testing.T) {
	m := compile(t, "ab{2}", 1)
	r := NewRunner(m)
	for _, b := range []byte("abb") {
		r.Step(b)
	}
	if r.FinalsFired() != 1 || len(r.BVUpdated()) != 1 {
		t.Fatalf("before Reset: FinalsFired=%d BVUpdated=%v, want 1 and one state", r.FinalsFired(), r.BVUpdated())
	}
	r.Reset()
	if r.FinalsFired() != 0 || len(r.BVUpdated()) != 0 {
		t.Errorf("after Reset: FinalsFired=%d BVUpdated=%v, want 0 and none", r.FinalsFired(), r.BVUpdated())
	}
}

// FuzzNBVAKernelEquivalence holds the chunk kernel to Runner.Step and
// CounterRunner fire for fire, with multiplicity, over chunk splits drawn
// from the seed. shape picks a named machine, or past the table a random
// one built from the seed. A seed that is 3 mod 4 inserts idle runs of
// 32-300 bytes that no class holds, long enough for bytes.IndexByte's
// vector loop; otherwise an idle gap is rarely more than a few bytes.
func FuzzNBVAKernelEquivalence(f *testing.F) {
	cases := kernelCases(f)
	for shape := 0; shape <= len(cases); shape++ {
		f.Add(uint8(shape), int64(shape), []byte("abbbbbcabbbcdbaaaaaaabcccccb"))
	}
	// Runs long enough to fill, read and overflow the 450-bit vectors.
	long := []byte("a" + strings.Repeat("b", 460) + "c")
	for shape := len(patternCases(f)); shape < len(cases); shape++ {
		f.Add(uint8(shape), int64(1), long)
	}
	f.Add(uint8(5), int64(2), []byte(strings.Repeat("ab", 40)+"c"))
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, input []byte) {
		r := rand.New(rand.NewSource(seed))
		var m *Machine
		if i := int(shape) % (len(cases) + 1); i < len(cases) {
			m = cases[i]
		} else {
			m = randomMachine(r)
		}
		norm := make([]byte, len(input))
		for i, b := range input {
			norm[i] = 'a' + b%kernelAlphabet
		}
		if seed&3 == 3 {
			for n := 1 + r.Intn(4); n > 0; n-- {
				at := r.Intn(len(norm) + 1)
				idle := bytes.Repeat([]byte{'z'}, 32+r.Intn(269))
				norm = append(norm[:at:at], append(idle, norm[at:]...)...)
			}
		}
		checkKernel(t, m, norm, randomCuts(r, len(norm)))
	})
}
