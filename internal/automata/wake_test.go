package automata

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/regexast"
	"repro/internal/workload"
)

// snortDFAs builds the streaming DFA of every Snort@1.0 pattern that has
// one under refmatch's default cap.
func snortDFAs(tb testing.TB) (*workload.Dataset, []*DFA) {
	d := workload.MustGenerate("Snort", 1.0, 1)
	var dfas []*DFA
	for _, p := range d.Patterns {
		re, err := regexast.Parse(p)
		if err != nil {
			continue
		}
		nfa, err := Glushkov(re, DefaultMaxStates)
		if err != nil || nfa.StartAnchored || nfa.EndAnchored || nfa.MatchesEmpty {
			continue
		}
		if dfa, err := BuildDFA(nfa, 2048); err == nil {
			dfas = append(dfas, dfa)
		}
	}
	if len(dfas) < 16 {
		tb.Fatalf("%d Snort patterns have a DFA, want at least 16", len(dfas))
	}
	return d, dfas
}

// stepWalk is the reference scan of one DFA: a Step per byte from row,
// calling emit(base+i) once per report fired at data[i]. It returns the
// row the walk ends in.
func stepWalk(d *DFA, row int32, data []byte, base int, emit func(end int)) int32 {
	fired := 0
	for i, b := range data {
		for row, fired = d.Step(row, b); fired > 0; fired-- {
			emit(base + i)
		}
	}
	return row
}

// BenchmarkDFAWake scans one 16 KiB body with the same DFAs one Step walk
// at a time and all in one wake loop: the Snort@1.0 DFAs, which rest on
// most bytes, and 56 DFAs that never rest (a leading '.' wakes each on
// every byte), the wake loop's worst case. Bytes are input bytes x DFAs,
// and each reports the matches it counted, so a loop that skips work
// cannot look fast.
func BenchmarkDFAWake(b *testing.B) {
	d, snort := snortDFAs(b)
	var restless []*DFA
	noise := make([]byte, 16<<10)
	r := rand.New(rand.NewSource(1))
	for i := range noise {
		noise[i] = byte('a' + r.Intn(26))
	}
	for i := 0; i < 56; i++ {
		dfa, err := BuildDFA(mustNFA(b, fmt.Sprintf(".%c[a-z]%c", 'a'+i%26, 'a'+(i/26+i)%26)), 0)
		if err != nil {
			b.Fatal(err)
		}
		restless = append(restless, dfa)
	}
	for _, set := range []struct {
		name  string
		dfas  []*DFA
		input []byte
	}{{"snort", snort, d.Input(16<<10, 1)}, {"restless", restless, noise}} {
		matches := 0
		run := func(name string, scan func()) {
			b.Run(set.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(set.input) * len(set.dfas)))
				matches = 0
				for i := 0; i < b.N; i++ {
					scan()
				}
				b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
			})
		}
		run("step", func() {
			for _, dfa := range set.dfas {
				stepWalk(dfa, 0, set.input, 0, func(int) { matches++ })
			}
		})
		loop, rows := NewWakeLoop(set.dfas), make([]int32, len(set.dfas))
		run("wake", func() {
			clear(rows)
			loop.Scan(rows, set.input, 0, func(int, int) { matches++ })
		})
	}
}

// wakeFixed are the patterns FuzzDFAWakeEquivalence mixes with random
// ones. The first reports twice on one byte (two final positions active
// together), which the loop must emit with multiplicity; "b.*a" never
// sleeps again once woken, and the rest fall back to row 0.
var wakeFixed = []string{"(a|[ab])c?", "ab", "a(b|c)*d", "[a-c]d|d", "b.*a", "dd", "ca"}

// FuzzDFAWakeEquivalence holds the wake loop to one Step walk per DFA,
// report for report, and those walks to NFA.MatchEnds, over 1-130 DFAs
// (so one wake word, two, and a partial third) and chunk cuts drawn from
// the seed: empty chunks, and a cut on each side of a byte that wakes a
// DFA at rest and of a reporting byte. Only the rows cross a cut.
func FuzzDFAWakeEquivalence(f *testing.F) {
	if dfa, err := BuildDFA(mustNFA(f, wakeFixed[0]), 0); err != nil || slices.Max(dfa.reports) < 2 {
		f.Fatalf("%q: err %v, want a state with two reports", wakeFixed[0], err)
	}
	for _, n := range []uint8{0, 1, 2, 4, 6, 8, 63, 64, 65, 129} {
		f.Add(n, int64(n), []byte("abcdabacabbdcadbdaccabxxxxddxca"))
	}
	f.Add(uint8(8), int64(3), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, seed int64, input []byte) {
		r := rand.New(rand.NewSource(seed))
		// The reference NFA steps a byte in ~100 ns per pattern; a longer
		// input adds time, not cases.
		input = input[:min(len(input), 256)]
		data := make([]byte, len(input))
		for i, b := range input {
			// 'x' wakes no pattern, so the DFAs also rest.
			data[i] = "abcdx"[b%5]
		}
		dfas := make([]*DFA, 1+int(n)%130)
		want := make([][]int, len(dfas))
		var wakes, reporting []int
		for l := range dfas {
			pattern := genPattern(r, 3)
			if r.Intn(2) == 0 {
				pattern = wakeFixed[r.Intn(len(wakeFixed))]
			}
			nfa := mustNFA(t, pattern)
			dfa, err := BuildDFA(nfa, 0)
			if err != nil {
				t.Fatalf("BuildDFA(%q): %v", pattern, err)
			}
			dfas[l] = dfa
			row, fired := int32(0), 0
			for i, b := range data {
				rest := row == 0
				if row, fired = dfa.Step(row, b); rest && (row != 0 || fired > 0) {
					wakes = append(wakes, i)
				}
				for ; fired > 0; fired-- {
					want[l] = append(want[l], i)
				}
			}
			ends := nfa.MatchEnds(data)
			if nfa.MatchesEmpty {
				ends = ends[1:] // the match before any input, which no scan reports
			}
			if !slices.Equal(slices.Compact(slices.Clone(want[l])), ends) {
				t.Fatalf("%q over %q: DFA ends %v, NFA ends %v", pattern, data, want[l], ends)
			}
			reporting = append(reporting, want[l]...)
		}
		var cuts []int
		for k := r.Intn(5); k > 0; k-- {
			cut := r.Intn(len(data) + 1)
			cuts = append(cuts, cut, cut) // an empty chunk between the two
		}
		for _, at := range [][]int{wakes, reporting} {
			if len(at) > 0 {
				i := at[r.Intn(len(at))]
				cuts = append(cuts, i, i+1)
			}
		}
		slices.Sort(cuts)
		loop := NewWakeLoop(dfas)
		rows := make([]int32, len(dfas))
		got := make([][]int, len(dfas))
		prev := 0
		for _, cut := range append(cuts, len(data)) {
			// One run per 64 DFAs, ascending in end, ties in DFA order: the
			// key (j/64, end, j) never falls.
			last := []int{0, prev, 0}
			loop.Scan(rows, data[prev:cut], prev, func(j, end int) {
				key := []int{j / 64, end, j}
				if end < prev || end >= cut || slices.Compare(key, last) < 0 {
					t.Fatalf("chunk [%d,%d): emit(%d, %d) after (%d, %d)", prev, cut, j, end, last[2], last[1])
				}
				last = key
				got[j] = append(got[j], end)
			})
			prev = cut
		}
		for l := range dfas {
			if !slices.Equal(got[l], want[l]) {
				t.Fatalf("DFA %d of %d, cuts %v over %q: wake loop %v, Step walk %v", l, len(dfas), cuts, data, got[l], want[l])
			}
		}
	})
}

// TestWakeLoopEqualsStep cuts random inputs at every offset: the wake loop
// must fire what Step fires and carry every row across the cut, whether
// its DFA is awake or asleep there.
func TestWakeLoopEqualsStep(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	patterns := []string{"ab", "a(b|c)*d", "a.*z|az", "[ab][ab]|b", "zz"}
	dfas := make([]*DFA, len(patterns))
	for j, p := range patterns {
		dfa, err := BuildDFA(mustNFA(t, p), 0)
		if err != nil {
			t.Fatal(err)
		}
		dfas[j] = dfa
	}
	loop := NewWakeLoop(dfas)
	input := make([]byte, 40)
	for i := range input {
		input[i] = "abcdzyy"[r.Intn(7)]
	}
	want := make([][]int, len(dfas))
	for j, dfa := range dfas {
		stepWalk(dfa, 0, input, 0, func(end int) { want[j] = append(want[j], end) })
	}
	for cut := 0; cut <= len(input); cut++ {
		got := make([][]int, len(dfas))
		emit := func(j, end int) { got[j] = append(got[j], end) }
		rows := make([]int32, len(dfas))
		loop.Scan(rows, input[:cut], 0, emit)
		loop.Scan(rows, input[cut:], cut, emit)
		for j := range dfas {
			if !slices.Equal(got[j], want[j]) {
				t.Fatalf("%q cut %d: wake loop %v, Step %v", patterns[j], cut, got[j], want[j])
			}
		}
	}
}
