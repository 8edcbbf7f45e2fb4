package nbva

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/regexast"
)

func TestCounterSemantics(t *testing.T) {
	m := compile(t, "bc{5}d", 1)
	r := NewCounterRunner(m)
	r.Step('b')
	r.Step('c')
	// One counter at value 1 on the c{5} state.
	var bvState int
	for i, s := range m.States {
		if s.BV != nil {
			bvState = i
		}
	}
	if got := r.counters[bvState]; len(got) != 1 || got[0] != 1 {
		t.Errorf("counter set = %v", got)
	}
	for i := 0; i < 4; i++ {
		r.Step('c')
	}
	if got := r.counters[bvState]; len(got) != 1 || got[0] != 5 {
		t.Errorf("counter set after 5 c's = %v", got)
	}
	// 6th c overflows.
	r.Step('c')
	if got := r.counters[bvState]; len(got) != 0 {
		t.Errorf("counter set after overflow = %v", got)
	}
}

func TestCounterTracksMultipleRuns(t *testing.T) {
	// .a{3}x: entries at every position create overlapping counters.
	m := compile(t, ".a{3}x", 1)
	r := NewCounterRunner(m)
	var bvState int
	for i, s := range m.States {
		if s.BV != nil {
			bvState = i
		}
	}
	r.Step('z')
	r.Step('a')
	r.Step('a')
	// Counters at 1 and 2 (runs starting after 'z' and after first 'a').
	got := r.counters[bvState]
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("counter set = %v", got)
	}
}

func TestCounterMatchesExamples(t *testing.T) {
	cases := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"b(a{7}|c{5})b", "xbaaaaaaab", true},
		{"b(a{7}|c{5})b", "xbccccccb", false},
		{"ab{10,48}c", "a" + strings.Repeat("b", 30) + "c", true},
		{"ab{10,48}c", "a" + strings.Repeat("b", 9) + "c", false},
		{"ac{0,3}d", "ad", true},
		{"ac{0,3}d", "accccd", false},
	}
	for _, tc := range cases {
		m := compile(t, tc.pattern, 4)
		ends := m.MatchEndsCounter([]byte(tc.input))
		got := len(ends) > 0
		if got != tc.want {
			t.Errorf("counter %q on %q = %v, want %v", tc.pattern, tc.input, got, tc.want)
		}
	}
}

// TestPropCounterEqualsBitVector is the cross-implementation property: the
// counter-set (NCA) semantics and the bit-vector semantics must agree on
// every input — §2.1's correspondence between the two models.
func TestPropCounterEqualsBitVector(t *testing.T) {
	r := rand.New(rand.NewSource(271828))
	for trial := 0; trial < 200; trial++ {
		pattern := randomBoundedPattern(r)
		re, err := regexast.Parse(pattern)
		if err != nil {
			t.Fatal(err)
		}
		root := regexast.SplitMinMax(regexast.UnfoldThreshold(re.Root, 1))
		m, err := ConstructFromNode(root)
		if err != nil {
			t.Fatalf("construct %q: %v", pattern, err)
		}
		for rep := 0; rep < 10; rep++ {
			input := make([]byte, r.Intn(30))
			for i := range input {
				input[i] = byte('a' + r.Intn(3))
			}
			bv := m.MatchEnds(input)
			ctr := m.MatchEndsCounter(input)
			if !equalInts(bv, ctr) {
				t.Fatalf("pattern %q input %q:\n bitvec =%v\n counter=%v\n%s",
					pattern, input, bv, ctr, m)
			}
		}
	}
}

func TestInsertSorted(t *testing.T) {
	s := []int{2, 5}
	s = insertSorted(s, 3)
	s = insertSorted(s, 3) // duplicate ignored
	s = insertSorted(s, 1)
	s = insertSorted(s, 9)
	want := []int{1, 2, 3, 5, 9}
	if len(s) != len(want) {
		t.Fatalf("s = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("s = %v", s)
		}
	}
	if !containsSorted(s, 5) || containsSorted(s, 4) {
		t.Error("containsSorted wrong")
	}
}
