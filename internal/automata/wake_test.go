package automata

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/regexast"
	"repro/internal/workload"
)

// snortDFAs builds the streaming DFA of every Snort pattern at scale that
// has one under refmatch's default cap, and returns each DFA's pattern.
func snortDFAs(tb testing.TB, scale float64) (*workload.Dataset, []*DFA, []string) {
	d := workload.MustGenerate("Snort", scale, 1)
	var dfas []*DFA
	var patterns []string
	for _, p := range d.Patterns {
		re, err := regexast.Parse(p)
		if err != nil {
			continue
		}
		nfa, err := Glushkov(re, DefaultMaxStates)
		if err != nil || nfa.StartAnchored || nfa.EndAnchored || nfa.MatchesEmpty {
			continue
		}
		if dfa, err := BuildDFA(2048, nfa); err == nil {
			dfas = append(dfas, dfa)
			patterns = append(patterns, p)
		}
	}
	if len(dfas) < 16 {
		tb.Fatalf("%d Snort patterns have a DFA, want at least 16", len(dfas))
	}
	return d, dfas, patterns
}

// BenchmarkDFAWake scans one 16 KiB body with the same DFAs one ScanFrom
// walk at a time and all in one wake loop: the Snort@1.0 DFAs, which rest on
// most bytes; those of them whose pattern has a '.*', which rest in their
// '.*' row once its left side has passed; the DFA lane of dataset_bulk,
// the 10 Snort@0.2 patterns compile puts in NFA mode (those with a '*' or
// '+' and no counter), asleep together on nearly every byte; and 56 DFAs
// that never return to row 0 (a leading '.' moves each off it on every
// byte) but rest in the row after it, which one byte in 26 of the noise
// leaves. Bytes are input bytes x DFAs, and each reports the matches it
// counted, so a loop that skips work cannot look fast.
func BenchmarkDFAWake(b *testing.B) {
	d, snort, patterns := snortDFAs(b, 1.0)
	var dotstar, restless []*DFA
	for j, p := range patterns {
		if strings.Contains(p, ".*") {
			dotstar = append(dotstar, snort[j])
		}
	}
	d02, all02, patterns02 := snortDFAs(b, 0.2)
	var lane02 []*DFA
	for j, p := range patterns02 {
		if strings.ContainsAny(p, "*+") && !strings.Contains(p, "{") {
			lane02 = append(lane02, all02[j])
		}
	}
	if len(lane02) != 10 {
		b.Fatalf("%d Snort@0.2 DFAs in NFA mode, want dataset_bulk's 10", len(lane02))
	}
	noise := make([]byte, 16<<10)
	r := rand.New(rand.NewSource(1))
	for i := range noise {
		noise[i] = byte('a' + r.Intn(26))
	}
	for i := 0; i < 56; i++ {
		dfa, err := BuildDFA(0, mustNFA(b, fmt.Sprintf(".%c[a-z]%c", 'a'+i%26, 'a'+(i/26+i)%26)))
		if err != nil {
			b.Fatal(err)
		}
		restless = append(restless, dfa)
	}
	for _, set := range []struct {
		name  string
		dfas  []*DFA
		input []byte
	}{{"snort", snort, d.Input(16<<10, 1)}, {"dotstar", dotstar, d.Input(16<<10, 1)},
		{"snort0.2", lane02, d02.Input(16<<10, 1)}, {"restless", restless, noise}} {
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
				dfa.ScanFrom(0, set.input, 0, func(int, int) { matches++ })
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
// together), which the loop must emit with multiplicity. "b.*a" and
// "ab.*cd" rest in their '.*' row once woken, ".a[a-c]b" in the row after
// its leading '.', never row 0 again, and "a[^b]*b" in a row that is not
// a '.*'; "ab.*" loops to a reporting row, which is never a rest row. The
// rest fall back to row 0. "^a(b|c)*d" and "^(ab)*c" leave their start
// row on every byte and rest in their dead row once a byte starts no
// match, "(ab)*" and "c(d|a)*$" are nullable and end-anchored.
var wakeFixed = []string{"(a|[ab])c?", "ab", "a(b|c)*d", "[a-c]d|d", "b.*a", "dd", "ca",
	"ab.*cd", ".a[a-c]b", "a[^b]*b", "ab.*", "^a(b|c)*d", "^(ab)*c", "(ab)*", "c(d|a)*$"}

// FuzzDFAWakeEquivalence holds the wake loop to one Step walk per DFA,
// report for report, and those walks to NFA.MatchEnds, over 1-130 DFAs
// (so one wake word, two, and a partial third) and chunk cuts drawn from
// the seed: empty chunks, and a cut on each side of a byte that wakes a
// DFA at rest in either rest row (so the byte ends a chunk, where the loop
// has no next byte to test) and of a reporting byte. Only the rows cross
// a cut.
func FuzzDFAWakeEquivalence(f *testing.F) {
	if dfa, err := BuildDFA(0, mustNFA(f, wakeFixed[0])); err != nil || !slices.ContainsFunc(dfa.reps, func(r report) bool { return r.count > 1 }) {
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
			pattern := genAnchored(r, 3)
			if r.Intn(2) == 0 {
				pattern = wakeFixed[r.Intn(len(wakeFixed))]
			}
			nfa := mustNFA(t, pattern)
			dfa, err := BuildDFA(0, nfa)
			if err != nil {
				t.Fatalf("BuildDFA(%q): %v", pattern, err)
			}
			dfas[l] = dfa
			state := int32(0)
			for i, b := range data {
				rest := state * int32(dfa.numParts)
				state = dfa.Step(state, b)
				n := fired(dfa, state)
				if (rest == 0 || rest == dfa.rest[1]) && (state*int32(dfa.numParts) != rest || n > 0) {
					wakes = append(wakes, i)
				}
				for ; n > 0; n-- {
					want[l] = append(want[l], i)
				}
			}
			ends := nfa.MatchEnds(data)
			if nfa.MatchesEmpty {
				ends = ends[1:] // the match before any input, which no scan reports
			}
			walk := slices.Compact(slices.Clone(want[l]))
			if dfa.EndAnchored {
				// Step fires wherever the NFA does; the scanner keeps the last byte's.
				walk = slices.DeleteFunc(walk, func(i int) bool { return i != len(data)-1 })
			}
			if !slices.Equal(walk, ends) {
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
// must fire what each DFA's own ScanFrom fires and carry every row across
// the cut, whether its DFA is awake or asleep there.
func TestWakeLoopEqualsStep(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	patterns := []string{"ab", "a(b|c)*d", "a.*z|az", "[ab][ab]|b", "zz", "ab.*cd", "^a(b|c)*d", "^(ab)*z?", "(ab)*", "b(a|c)*$"}
	dfas := make([]*DFA, len(patterns))
	for j, p := range patterns {
		dfa, err := BuildDFA(0, mustNFA(t, p))
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
		dfa.ScanFrom(0, input, 0, func(_, end int) { want[j] = append(want[j], end) })
	}
	for cut := 0; cut <= len(input); cut++ {
		got := make([][]int, len(dfas))
		emit := func(j, end int) { got[j] = append(got[j], end) }
		rows := make([]int32, len(dfas))
		loop.Scan(rows, input[:cut], 0, emit)
		loop.Scan(rows, input[cut:], cut, emit)
		for j := range dfas {
			if !slices.Equal(got[j], want[j]) {
				t.Fatalf("%q cut %d: wake loop %v, ScanFrom %v", patterns[j], cut, got[j], want[j])
			}
		}
	}
}

// TestWakeLoopAllAsleep holds the all-asleep pair-test loop to each DFA's
// own ScanFrom at every cut: a wake pair that straddles a chunk end (its escape byte is
// the chunk's last, which has no successor yet and must step), a wake at
// byte 0, DFAs asleep in row 0 and in rest[1] side by side, and 69 DFAs
// in two groups, 64 that no byte of the input wakes in one and five that
// wake in the other, either way round. Mutants seen failing here: letting
// a chunk's last byte skip without its wake test, and advancing two bytes
// per dead pair.
func TestWakeLoopAllAsleep(t *testing.T) {
	waking := []string{"ab", "b.*a", "a[^b]*b", "ca", "bc.*d"}
	var asleep []string
	for i := 0; i < 64; i++ {
		asleep = append(asleep, fmt.Sprintf("q%cz", 'e'+i%20))
	}
	for _, patterns := range [][]string{waking, append(slices.Clip(asleep), waking...), append(slices.Clip(waking), asleep...)} {
		var dfas []*DFA
		var names []string
		for _, p := range patterns {
			dfa, err := BuildDFA(0, mustNFA(t, p))
			if err != nil {
				t.Fatal(err)
			}
			dfas, names = append(dfas, dfa), append(names, p)
		}
		loop := NewWakeLoop(dfas)
		for _, input := range []string{"abxxxxxa", "xxab" + strings.Repeat("x", 40) + "bxxxxcab", "ca" + strings.Repeat("xy", 20) + "bcxxa" + strings.Repeat("x", 33) + "d"} {
			want := make([][]int, len(dfas))
			for j, dfa := range dfas {
				dfa.ScanFrom(0, []byte(input), 0, func(_, end int) { want[j] = append(want[j], end) })
			}
			for cut := 0; cut <= len(input); cut++ {
				got := make([][]int, len(dfas))
				emit := func(j, end int) { got[j] = append(got[j], end) }
				rows := make([]int32, len(dfas))
				loop.Scan(rows, []byte(input[:cut]), 0, emit)
				loop.Scan(rows, []byte(input[cut:]), cut, emit)
				for j := range dfas {
					if !slices.Equal(got[j], want[j]) {
						t.Fatalf("%d DFAs, %q over %q cut %d: wake loop %v, ScanFrom %v", len(dfas), names[j], input, cut, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestRestRowsExact holds every Snort@0.2 and Snort@1.0 DFA's rest rows to
// their definition with Step: each escape set is exactly the bytes that
// leave its row or report there, a byte outside the pair set after an
// escape byte ends where one step from the rest row does, no rest row
// loops by reporting, and every "lit.*lit" DFA rests in its '.*' row. It
// pins the share of (DFA, byte) a Step walk of Snort@1.0's bodies spends
// in a rest row, 0.9935 over four 16 KiB bodies (row 0 alone: 0.933).
func TestRestRowsExact(t *testing.T) {
	for _, scale := range []float64{0.2, 1.0} {
		d, dfas, patterns := snortDFAs(t, scale)
		dotstars := 0
		for j, dfa := range dfas {
			for k, row := range dfa.rest {
				rest := row / int32(dfa.numParts)
				for c := 0; c < 256; c++ {
					next := dfa.Step(rest, byte(c))
					n := fired(dfa, next)
					if leaves := next != rest || n > 0; dfa.escape[k].Contains(byte(c)) != leaves {
						t.Fatalf("%q rest row %d: byte %#x escapes %v, leaves %v", patterns[j], row, c, !leaves, leaves)
					} else if !leaves {
						continue
					}
					for x := 0; x < 256; x++ {
						if dfa.pair[k].Contains(byte(x)) {
							continue
						}
						two, one := dfa.Step(next, byte(x)), dfa.Step(rest, byte(x))
						if n > 0 || two != one {
							t.Fatalf("%q rest row %d: %#x %#x outside the pair set moves the DFA", patterns[j], row, c, x)
						}
					}
				}
			}
			if row := dfa.rest[1]; row != 0 && fired(dfa, row/int32(dfa.numParts)) > 0 {
				t.Fatalf("%q rests in reporting row %d", patterns[j], row)
			}
			left, right, ok := strings.Cut(patterns[j], ".*")
			if !ok || strings.HasSuffix(left, `\`) {
				continue // no '.*', or a '\.' repeated
			}
			left, right = strings.ReplaceAll(left, `\`, ""), strings.ReplaceAll(right, `\`, "")
			if strings.ContainsAny(left+right, ".*+?()[]{}|") {
				continue
			}
			// Past the left literal and one byte in neither, only '.*' is live.
			row := dfa.ScanFrom(0, []byte(left+"\x00"), 0, func(int, int) {}) * int32(dfa.numParts)
			if row != dfa.rest[1] {
				t.Errorf("%q: rests in row %d, its '.*' row is %d", patterns[j], dfa.rest[1], row)
			}
			dotstars++
		}
		if dotstars == 0 {
			t.Fatalf("Snort@%v: no lit.*lit DFA", scale)
		}
		if scale != 1.0 {
			continue
		}
		resting, steps := 0, 0
		for seed := int64(1); seed <= 4; seed++ {
			input := d.Input(16<<10, seed)
			for _, dfa := range dfas {
				state := int32(0)
				for _, b := range input {
					if state = dfa.Step(state, b); state == 0 || state*int32(dfa.numParts) == dfa.rest[1] {
						resting++
					}
				}
				steps += len(input)
			}
		}
		if share := float64(resting) / float64(steps); share < 0.99 {
			t.Errorf("Snort@1.0: a Step walk rests on %.4f of (DFA, byte), want 0.9935", share)
		}
	}
}
