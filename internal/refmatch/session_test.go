package refmatch

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// sessionTestPatterns exercises every lane: windowed, NBVA and DFA
// (anchored patterns among them), including end-anchoring.
var sessionTestPatterns = []string{
	"cat",        // windowed
	"d{3}g",      // small bound, unfolds
	"ab{10,48}c", // nbva
	"a(x|y)*b",   // dfa fast path
	"^start",     // start-anchored nfa
	"end$",       // end-anchored nfa
}

func sessionTestInput(r *rand.Rand, n int) []byte {
	alpha := []byte("abcdxystartendg ")
	input := make([]byte, n)
	for i := range input {
		input[i] = alpha[r.Intn(len(alpha))]
	}
	return input
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
}

func matchesEqual(a, b []Match) bool {
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

// streamAll feeds input through a session in the given chunk sizes and
// returns Feed matches plus the Finish (end-anchored) tail.
func streamAll(s *Session, input []byte, chunks []int) []Match {
	var out []Match
	off := 0
	for _, n := range chunks {
		out = append(out, s.Feed(input[off:off+n])...)
		off += n
	}
	out = append(out, s.Feed(input[off:])...)
	out = append(out, s.Finish()...)
	return out
}

// TestSessionChunkedEqualsWholeBuffer is the core streaming property: any
// chunking of the input produces the same match set as one whole-buffer
// Scan, including end-anchored patterns resolved at Finish.
func TestSessionChunkedEqualsWholeBuffer(t *testing.T) {
	m, err := Compile(context.Background(), sessionTestPatterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		input := append(sessionTestInput(r, 40+r.Intn(200)), []byte("the cat sat at the end")...)
		want := m.Scan(input)
		sortMatches(want)

		var chunks []int
		rest := len(input)
		for rest > 1 && len(chunks) < 6 {
			n := 1 + r.Intn(rest-1)
			chunks = append(chunks, n)
			rest -= n
		}
		got := streamAll(m.NewSession(), input, chunks)
		sortMatches(got)
		if !matchesEqual(got, want) {
			t.Fatalf("trial %d chunks %v: stream %v != scan %v", trial, chunks, got, want)
		}
	}
}

// TestFeedIntoEqualsScanInto: a stream fed by FeedInto in any chunks,
// the last one flagged, appends the very sequence ScanInto appends for
// the whole buffer, end-anchored matches in their places included.
func TestFeedIntoEqualsScanInto(t *testing.T) {
	m, err := Compile(context.Background(), sessionTestPatterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(78))
	s := m.NewSession()
	for trial := 0; trial < 50; trial++ {
		input := append(sessionTestInput(r, 40+r.Intn(200)), []byte("the cat sat at the end")...)
		want := m.Scan(input)
		s.Reset()
		var got []Match
		for rest := input; len(rest) > 0; {
			n := 1 + r.Intn(len(rest))
			got = s.FeedInto(rest[:n], n == len(rest), got)
			rest = rest[n:]
		}
		if !matchesEqual(got, want) {
			t.Fatalf("trial %d: FeedInto %v != Scan %v", trial, got, want)
		}
	}
}

// TestSessionIsolation interleaves two sessions on one shared program and
// checks neither sees state or matches from the other.
func TestSessionIsolation(t *testing.T) {
	m, err := Compile(context.Background(), sessionTestPatterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stream A contains matches stream B must not see and vice versa.
	inputA := []byte("xxx cat abbbbbbbbbbbbc cat end")
	inputB := []byte("start dddg axyxyb yyyyyyyyyyyy")

	wantA := m.Scan(inputA)
	wantB := m.Scan(inputB)
	sortMatches(wantA)
	sortMatches(wantB)

	sa, sb := m.NewSession(), m.NewSession()
	var gotA, gotB []Match
	// Alternate byte-sized chunks — the tightest possible interleaving.
	for i := 0; i < len(inputA) || i < len(inputB); i++ {
		if i < len(inputA) {
			gotA = append(gotA, sa.Feed(inputA[i:i+1])...)
		}
		if i < len(inputB) {
			gotB = append(gotB, sb.Feed(inputB[i:i+1])...)
		}
	}
	gotA = append(gotA, sa.Finish()...)
	gotB = append(gotB, sb.Finish()...)
	sortMatches(gotA)
	sortMatches(gotB)
	if !matchesEqual(gotA, wantA) {
		t.Errorf("session A: %v != %v", gotA, wantA)
	}
	if !matchesEqual(gotB, wantB) {
		t.Errorf("session B: %v != %v", gotB, wantB)
	}
	if len(wantA) == 0 || len(wantB) == 0 {
		t.Fatal("test inputs must produce matches on both streams")
	}
}

// TestMatcherConcurrentScan shares one compiled Matcher across many
// goroutines (run with -race): Scan must be read-only on the Matcher.
func TestMatcherConcurrentScan(t *testing.T) {
	// The wants come from a matcher of their own, so the concurrent scans
	// race to build m's windowed unions.
	m, err := Compile(context.Background(), sessionTestPatterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Compile(context.Background(), sessionTestPatterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	inputs := make([][]byte, 8)
	wants := make([][]Match, 8)
	for i := range inputs {
		inputs[i] = append(sessionTestInput(r, 300), []byte("cat end")...)
		wants[i] = ref.Scan(inputs[i])
		sortMatches(wants[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				i := (g + rep) % len(inputs)
				got := m.Scan(inputs[i])
				sortMatches(got)
				if !matchesEqual(got, wants[i]) {
					errs <- "concurrent scan diverged from sequential scan"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSessionFinishRestarts checks that feeding after Finish starts a
// fresh stream at offset 0.
func TestSessionFinishRestarts(t *testing.T) {
	m, err := Compile(context.Background(), []string{"ab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession()
	if got := s.Feed([]byte("xab")); len(got) != 1 || got[0].End != 2 {
		t.Fatalf("first stream: %v", got)
	}
	s.Finish()
	if got := s.Feed([]byte("ab")); len(got) != 1 || got[0].End != 1 {
		t.Fatalf("second stream should restart at offset 0: %v", got)
	}
}
