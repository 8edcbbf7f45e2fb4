package automata

import (
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
	if len(dfas) < 2*BlockLanes {
		tb.Fatalf("%d Snort patterns have a DFA, want at least %d", len(dfas), 2*BlockLanes)
	}
	return d, dfas[:len(dfas)&^(BlockLanes-1)]
}

// BenchmarkDFABlock scans one 16 KiB Snort body with the same DFAs one at
// a time and four to a loop. Bytes are input bytes x DFAs, and both report
// the matches they counted, so a kernel that skips work cannot look fast.
func BenchmarkDFABlock(b *testing.B) {
	d, dfas := snortDFAs(b)
	input := d.Input(16<<10, 1)
	matches := 0
	count := func(int) { matches++ }
	countLane := func(int, int) { matches++ }
	run := func(name string, scan func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(input) * len(dfas)))
			matches = 0
			for i := 0; i < b.N; i++ {
				scan()
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
		})
	}
	run("lanes=1", func() {
		for _, dfa := range dfas {
			dfa.ScanChunk(0, input, 0, count)
		}
	})
	run("lanes=4", func() {
		for j := 0; j < len(dfas); j += BlockLanes {
			var rows [BlockLanes]int32
			ScanBlock((*[BlockLanes]*DFA)(dfas[j:]), &rows, input, 0, countLane)
		}
	})
}

// blockFixed are the patterns FuzzDFABlockEquivalence mixes with random
// ones. The first reports twice on one byte (two final positions active
// together), the case a block lane must emit with multiplicity.
var blockFixed = []string{"(a|[ab])c?", "ab", "a(b|c)*d", "[a-c]d|d", "b.*a"}

// FuzzDFABlockEquivalence holds ScanBlock to the single-lane ScanChunk of
// each of its DFAs, report for report, and both to NFA.MatchEnds, over 1-9
// DFAs (so zero to two whole blocks and every tail length) and chunk cuts
// drawn from the seed: empty chunks, and a cut on each side of a reporting
// byte. Only the rows cross a cut.
func FuzzDFABlockEquivalence(f *testing.F) {
	if dfa, err := BuildDFA(mustNFA(f, blockFixed[0]), 0); err != nil || slices.Max(dfa.reports) < 2 {
		f.Fatalf("%q: err %v, want a state with two reports", blockFixed[0], err)
	}
	for n := 0; n < 9; n++ {
		f.Add(uint8(n), int64(n), []byte("abcdabacabbdcadbdaccab"))
	}
	f.Add(uint8(8), int64(3), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, seed int64, input []byte) {
		r := rand.New(rand.NewSource(seed))
		// The reference NFA steps a byte in ~100 ns per pattern; a longer
		// input adds time, not cases.
		input = input[:min(len(input), 512)]
		data := make([]byte, len(input))
		for i, b := range input {
			data[i] = 'a' + b%4
		}
		dfas := make([]*DFA, 1+int(n)%9)
		want := make([][]int, len(dfas))
		var reporting []int
		for l := range dfas {
			pattern := genPattern(r, 3)
			if l < len(blockFixed) && r.Intn(2) == 0 {
				pattern = blockFixed[l]
			}
			nfa := mustNFA(t, pattern)
			dfa, err := BuildDFA(nfa, 0)
			if err != nil {
				t.Fatalf("BuildDFA(%q): %v", pattern, err)
			}
			dfas[l] = dfa
			dfa.ScanChunk(0, data, 0, func(end int) { want[l] = append(want[l], end) })
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
		if len(reporting) > 0 {
			end := reporting[r.Intn(len(reporting))]
			cuts = append(cuts, end, end+1)
		}
		slices.Sort(cuts)
		rows := make([]int32, len(dfas))
		got := make([][]int, len(dfas))
		blocked := len(dfas) &^ (BlockLanes - 1)
		prev := 0
		for _, cut := range append(cuts, len(data)) {
			chunk := data[prev:cut]
			for j := 0; j < blocked; j += BlockLanes {
				lastLane, lastEnd := 0, prev
				ScanBlock((*[BlockLanes]*DFA)(dfas[j:]), (*[BlockLanes]int32)(rows[j:]), chunk, prev, func(lane, end int) {
					if end < lastEnd || end >= cut || (end == lastEnd && lane < lastLane) {
						t.Fatalf("block %d chunk [%d,%d): emit(%d, %d) after (%d, %d)", j, prev, cut, lane, end, lastLane, lastEnd)
					}
					lastLane, lastEnd = lane, end
					got[j+lane] = append(got[j+lane], end)
				})
			}
			for l := blocked; l < len(dfas); l++ {
				rows[l] = dfas[l].ScanChunk(rows[l], chunk, prev, func(end int) { got[l] = append(got[l], end) })
			}
			prev = cut
		}
		for l := range dfas {
			if !slices.Equal(got[l], want[l]) {
				t.Fatalf("lane %d of %d, cuts %v over %q: got %v, single-lane whole buffer %v", l, len(dfas), cuts, data, got[l], want[l])
			}
		}
	})
}
