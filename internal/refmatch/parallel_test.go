package refmatch

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/automata"
)

// parTestPatterns mixes the parallel-eligible lanes: DFA patterns and
// the windowed group.
var parTestPatterns = []string{
	"abc[0-9]*xyz",  // dfa
	"a.*b",          // dfa
	"[a-d]key[e-h]", // windowed on "key"
	"foo.?bar",      // windowed
	"ab+cd",         // dfa
}

func compilePar(t testing.TB, patterns []string, opts Options) *Matcher {
	t.Helper()
	m, err := Compile(context.Background(), patterns, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func parSorted(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// checkParallel scans input both ways at the given worker counts and
// fails on any difference in the (sorted) match multiset.
func checkParallel(t testing.TB, m *Matcher, input []byte, minChunk int, workerCounts ...int) {
	t.Helper()
	serial := parSorted(m.Scan(input))
	for _, w := range workerCounts {
		s := m.NewSession()
		got, err := s.scanParallel(context.Background(), input, w, minChunk)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(got) == 0 && len(serial) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, serial) {
			i := 0
			for i < len(got) && i < len(serial) && got[i] == serial[i] {
				i++
			}
			t.Fatalf("workers=%d minChunk=%d: parallel %d matches vs serial %d; first divergence at %d",
				w, minChunk, len(got), len(serial), i)
		}
	}
}

// parInput builds pseudo-random input with planted matches for every
// test pattern.
func parInput(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	alpha := []byte("abcdkeyfoxyzr0123 ")
	in := make([]byte, 0, n+64)
	plants := [][]byte{
		[]byte("abc12xyz"), []byte("akeye"), []byte("foobar"),
		[]byte("fooxbar"), []byte("abbcd"), []byte("dkeyh"),
	}
	for len(in) < n {
		run := rng.Intn(97) + 3
		for i := 0; i < run; i++ {
			in = append(in, alpha[rng.Intn(len(alpha))])
		}
		in = append(in, plants[rng.Intn(len(plants))]...)
	}
	return in[:n]
}

// TestScanParallelEquivalence is the main differential check: parallel
// and serial scans agree match-for-match across worker counts and chunk
// granularities.
func TestScanParallelEquivalence(t *testing.T) {
	m := compilePar(t, parTestPatterns, Options{})
	for _, seed := range []int64{1, 2, 3} {
		input := parInput(1<<16, seed)
		checkParallel(t, m, input, 1024, 1, 2, 4, 8)
		checkParallel(t, m, input, 64<<10, 4)
	}
}

// TestScanParallelNFAEngine disables the DFA path: every pattern, the
// linear ones too, then runs on the NBVA lane as a machine without bit
// vectors, and the set refuses ScanParallel as any set with an NBVA
// pattern does.
func TestScanParallelNFAEngine(t *testing.T) {
	m := compilePar(t, parTestPatterns, Options{DFAStateCap: -1})
	for i, e := range m.Engines() {
		if e != EngineNBVA {
			t.Errorf("pattern %q runs on %v", parTestPatterns[i], e)
		}
	}
	_, err := m.NewSession().ScanParallel(context.Background(), parInput(1<<15, 5), 3)
	if !errors.Is(err, ErrNotParallelizable) || FallbackReason(err) != ReasonNBVAEngine {
		t.Errorf("ScanParallel = %v, want %s", err, ReasonNBVAEngine)
	}
}

// TestScanParallelBoundarySpanning plants a match squarely across every
// chunk boundary of a small 4-way split.
func TestScanParallelBoundarySpanning(t *testing.T) {
	m := compilePar(t, parTestPatterns, Options{})
	// 40 bytes, 4 chunks of 10: boundaries at 10, 20, 30. "abc00xyz" laid
	// at 5..12 spans the first; "fooxbar", the windowed group's longest
	// match, at 14..20 ends on the second, so only the whole overlap
	// finds it; "akeye" at 28..32 spans the third.
	input := []byte("rrrrrabc00xyzrfooxbarrrrrrrrakeyerrrrrrr")
	if len(input) != 40 {
		t.Fatalf("bad fixture length %d", len(input))
	}
	checkParallel(t, m, input, 10, 4)
	// The same fixture at every possible boundary placement.
	for minChunk := 1; minChunk <= len(input); minChunk++ {
		checkParallel(t, m, input, minChunk, 4)
	}
}

// TestScanParallelDegenerate covers the empty buffer, single-byte
// chunks, and a buffer shorter than the worker count.
func TestScanParallelDegenerate(t *testing.T) {
	m := compilePar(t, parTestPatterns, Options{})
	s := m.NewSession()
	got, err := s.ScanParallel(context.Background(), nil, 4)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty buffer: %v, %d matches", err, len(got))
	}
	checkParallel(t, m, []byte("aabcdkeye"), 1, 9, 16) // single-byte chunks
	checkParallel(t, m, []byte("ab"), 1, 8)            // fewer bytes than workers
}

// TestScanParallelStats sanity-checks the phase breakdown of a real run.
func TestScanParallelStats(t *testing.T) {
	m := compilePar(t, parTestPatterns, Options{})
	s := m.NewSession()
	input := parInput(1<<16, 9)
	if _, err := s.scanParallel(context.Background(), input, 4, 1024); err != nil {
		t.Fatal(err)
	}
	st := s.ParallelStats()
	if st.Chunks != 4 || st.Bytes != len(input) || st.SFAStates == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.CriticalPathNS() < st.Phase1MaxNS {
		t.Fatalf("critical path %d < phase1 %d", st.CriticalPathNS(), st.Phase1MaxNS)
	}
}

// TestScanParallelFallbacks checks every typed ineligibility reason.
func TestScanParallelFallbacks(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
		opts     Options
		reason   string
	}{
		{"nbva", []string{"x[ab]{40,60}y"}, Options{}, ReasonNBVAEngine},
		{"anchored", []string{"^abc"}, Options{}, ReasonAnchored},
		{"nullable", []string{"(ab)*"}, Options{}, ReasonMatchesEmpty},
		{"state cap", []string{"a.*b"}, Options{SFAStateCap: 1}, ReasonStateCap},
		{"disabled", parTestPatterns, Options{SFAStateCap: -1}, ReasonDisabled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := compilePar(t, tc.patterns, tc.opts)
			s := m.NewSession()
			_, err := s.ScanParallel(context.Background(), []byte("abcaxbyc"), 4)
			if !errors.Is(err, ErrNotParallelizable) {
				t.Fatalf("want ErrNotParallelizable, got %v", err)
			}
			if got := FallbackReason(err); got != tc.reason {
				t.Fatalf("reason = %q, want %q", got, tc.reason)
			}
			if tc.reason == ReasonStateCap && !errors.Is(err, automata.ErrStateCapExceeded) {
				t.Fatalf("state-cap error does not wrap automata.ErrStateCapExceeded: %v", err)
			}
			if err := m.Parallelizable(); FallbackReason(err) != tc.reason {
				t.Fatalf("Parallelizable disagrees: %v", err)
			}
		})
	}
	if err := compilePar(t, parTestPatterns, Options{}).Parallelizable(); err != nil {
		t.Fatalf("eligible set reported: %v", err)
	}
}

// TestScanParallelCanceled checks context cancellation is honored.
func TestScanParallelCanceled(t *testing.T) {
	m := compilePar(t, parTestPatterns, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.NewSession().ScanParallel(ctx, parInput(4096, 1), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

var (
	fuzzOnce    sync.Once
	fuzzMatcher *Matcher
	fuzzErr     error
)

// FuzzSFAEquivalence drives arbitrary inputs, worker counts and chunk
// sizes through ScanParallel and demands byte-exact agreement with the
// serial scan.
func FuzzSFAEquivalence(f *testing.F) {
	f.Add([]byte("abc12xyzfoobarakeye"), uint8(4), uint16(3))
	f.Add([]byte("aaaaabbbbbabcd"), uint8(7), uint16(1))
	f.Add([]byte(""), uint8(1), uint16(1))
	f.Add(parInput(2048, 42), uint8(3), uint16(100))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8, minChunk uint16) {
		fuzzOnce.Do(func() {
			fuzzMatcher, fuzzErr = Compile(context.Background(), parTestPatterns, Options{})
		})
		if fuzzErr != nil {
			t.Fatal(fuzzErr)
		}
		m := fuzzMatcher
		w := int(workers%16) + 1
		mc := int(minChunk%512) + 1
		serial := parSorted(m.Scan(data))
		got, err := m.NewSession().scanParallel(context.Background(), data, w, mc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 && len(serial) == 0 {
			return
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d minChunk=%d: parallel %d matches, serial %d", w, mc, len(got), len(serial))
		}
	})
}
