package refmatch

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/regexast"
	"repro/internal/workload"
)

// dfaTables returns the DFA tables of m in pattern order, the pattern of
// each, and how many wake words of 64 DFAs the lane's loop reads.
func dfaTables(m *Matcher) (dfas []*automata.DFA, patterns []int, words int) {
	for _, l := range m.lanes {
		if l, ok := l.(*dfaLane); ok {
			return l.dfas, l.patterns, len(l.loop)
		}
	}
	return nil, nil, 0
}

// nbvaTables returns the NBVA lane of m, empty when it has none.
func nbvaTables(m *Matcher) *nbvaLane {
	for _, l := range m.lanes {
		if l, ok := l.(*nbvaLane); ok {
			return l
		}
	}
	return &nbvaLane{}
}

// laneOf returns the rank of the scan lane that reports pattern p, read
// from the public verdicts alone: windowed, NBVA, DFA.
func laneOf(m *Matcher, p int) int {
	switch {
	case m.PrefilterVerdicts()[p].Prefilterable:
		return 0
	case m.Engines()[p] == EngineNBVA:
		return 1
	}
	return 2
}

// FuzzSessionDifferential streams a set of up to six patterns, mixing
// every scan lane, through Feed at random cuts and Finish, and holds the
// union of what it reports to each pattern's reference NFA. Every Feed
// and the Finish must keep the order contract on their own: End
// ascending, equal-End ties in lane order and then pattern order.
func FuzzSessionDifferential(f *testing.F) {
	wide := strings.Repeat("[ab]", 70)
	for _, seed := range []struct{ patterns, input string }{
		{"cat\n[a-f].[a-f]\nab{20}c\n^a(x|y)*b\na(x|b)*c\nq(a|b)*c$",
			"axyb cat a" + strings.Repeat("b", 20) + "c qabc"},
		{"a(x|y)*b\nb(x|y)*c\nc(x|y)*d\nd(x|y)*e\ne(x|y)*f\nneedle",
			"axxb byyc cxd dye exyf needle axbyc"},
		{wide + "c{20}d\nhab{20}c\n^xab{18,30}bc$\nb{17}\n[bc]{19}$",
			"xa" + strings.Repeat("b", 20) + "c " + strings.Repeat("ab", 35) + strings.Repeat("c", 20) + "d hab" +
				strings.Repeat("b", 19) + "c" + strings.Repeat("b", 19)},
		{"bbbc\n^qa(x|b)*c\nb{20}c\n[ab]{0,30}bc\na(y|b)*c\nend$",
			"qa" + strings.Repeat("b", 24) + "c end"},
		// Nullable patterns, and one of 71 states: past a small DFA cap it
		// runs on the NBVA step runner, the others on word64.
		{"(ab)*\nx(y|z)*q?\n(c[ab][ab])*$\n^(a|b)*\n(" + wide + ")*c",
			"abab xyzq cabcba " + strings.Repeat("ab", 35) + "c"},
		// Three NBVA machines on one start byte and one on another, all
		// reading one start-byte search.
		{"ab{12,40}c\na[0-9]{12,40}x\na.{12,40}z\nqb{12,40}c",
			"aa" + strings.Repeat("b", 12) + "c a" + strings.Repeat("5", 20) + "x a" + strings.Repeat("b", 13) + "z q" +
				strings.Repeat("b", 12) + "c aq" + strings.Repeat("b", 14) + "c a.a" + strings.Repeat(".", 12) + "z ab"},
	} {
		f.Add(seed.patterns, []byte(seed.input), int64(len(seed.input)))
	}
	f.Fuzz(func(t *testing.T, patternList string, input []byte, seed int64) {
		patterns := strings.Split(patternList, "\n")
		if len(patterns) > 6 || len(patternList) > 1<<10 || len(input) > 2<<10 {
			return
		}
		want := map[Match]bool{}
		for p, pat := range patterns {
			re, err := regexast.Parse(pat)
			if err != nil {
				return
			}
			nfa, err := automata.Glushkov(re, automata.DefaultMaxStates)
			if err != nil {
				return
			}
			for _, end := range nfa.MatchEnds(input) {
				if end >= 0 { // -1 is "matches before any input", never reported
					want[Match{Pattern: p, End: end}] = true
				}
			}
		}
		// Each set is scanned twice: with the default DFA cap, and with one
		// most DFAs outgrow, so their NFAs run on the NBVA lane.
		for _, opts := range []Options{{}, {DFAStateCap: 3}} {
			m, err := Compile(context.Background(), patterns, opts)
			if err != nil {
				return
			}
			streamEquals(t, m, patterns, input, seed, want)
		}
	})
}

// streamEquals feeds input to a session of m at cuts drawn from seed and
// holds what Feed and Finish report to want, each call in the order
// contract.
func streamEquals(t *testing.T, m *Matcher, patterns []string, input []byte, seed int64, want map[Match]bool) {
	t.Helper()
	lane := make([]int, len(patterns))
	for p := range lane {
		lane[p] = laneOf(m, p)
	}
	ordered := func(what string, ms []Match) {
		for i := 1; i < len(ms); i++ {
			a, b := ms[i-1], ms[i]
			if a.End > b.End || a.End == b.End &&
				(lane[a.Pattern] > lane[b.Pattern] || lane[a.Pattern] == lane[b.Pattern] && a.Pattern > b.Pattern) {
				t.Fatalf("%q on %q: %s reports %v before %v (lanes %v)", patterns, input, what, a, b, lane)
			}
		}
	}
	r := rand.New(rand.NewSource(seed))
	s := m.NewSession()
	got := map[Match]bool{}
	for rest := input; ; {
		n := r.Intn(len(rest) + 1)
		ms := s.Feed(rest[:n])
		ordered("Feed", ms)
		for _, mt := range ms {
			got[mt] = true
		}
		if rest = rest[n:]; len(rest) == 0 {
			break
		}
	}
	ms := s.Finish()
	ordered("Finish", ms)
	for _, mt := range ms {
		got[mt] = true
	}
	if len(got) != len(want) {
		t.Fatalf("%q on %q: streamed %v, reference NFAs %v", patterns, input, got, want)
	}
	for mt := range want {
		if !got[mt] {
			t.Fatalf("%q on %q: streamed %v, reference NFAs %v", patterns, input, got, want)
		}
	}
}

// TestNBVALaneBlocks scans chunks past hitBlock, where the NBVA lane
// searches for its start bytes a block at a time: machines that share a
// start byte tie on a block's last byte, a match straddles a block edge
// and a start byte ends a block. A whole scan reports exactly, in order,
// what a feed of chunks inside one block reports, and what the reference
// NFAs find. A 256 KiB chunk in which every byte is a start byte leaves
// the session's slab of positions at hitBlock, and no hold on the chunk.
func TestNBVALaneBlocks(t *testing.T) {
	patterns := []string{"ab{12,40}c", "a[0-9b]{12,40}c", "a.{12,40}c", "qb{12,40}c"}
	m := compilePar(t, patterns, Options{})
	nb := nbvaTables(m)
	for j := range patterns {
		if k := nb.kernel(j); !strings.HasPrefix(k, "word64 memchr") {
			t.Fatalf("pattern %d on %q, want a memchr kernel", j, k)
		}
	}
	run := func(start byte, n int) string { return string(start) + strings.Repeat("b", n) + "c" }
	input := bytes.Repeat([]byte("x"), 4*hitBlock+100)
	copy(input[hitBlock-14:], run('a', 12))  // three ties at the block's last byte
	copy(input[2*hitBlock-5:], run('a', 16)) // straddles the edge
	copy(input[2*hitBlock+40:], run('q', 13))
	copy(input[3*hitBlock-1:], run('a', 14)) // the start byte ends a block
	copy(input[4*hitBlock-8:], run('q', 20))
	want := map[Match]bool{}
	for p, pat := range patterns {
		re, err := regexast.Parse(pat)
		if err != nil {
			t.Fatal(err)
		}
		nfa, err := automata.Glushkov(re, automata.DefaultMaxStates)
		if err != nil {
			t.Fatal(err)
		}
		for _, end := range nfa.MatchEnds(input) {
			want[Match{Pattern: p, End: end}] = true
		}
	}
	whole := m.Scan(input)
	s := m.NewSession()
	var fed []Match
	for at := 0; at < len(input); at += 1000 {
		fed = append(fed, s.Feed(input[at:min(at+1000, len(input))])...)
	}
	if !reflect.DeepEqual(whole, fed) || len(whole) != len(want) || len(want) != 11 {
		t.Fatalf("whole scan %v\nfed in 1000-byte chunks %v\nreference NFAs %v", whole, fed, want)
	}
	for _, mt := range whole {
		if !want[mt] {
			t.Fatalf("whole scan reports %v, which no reference NFA finds", mt)
		}
	}
	s = m.NewSession()
	s.ScanInto(bytes.Repeat([]byte("a"), 256<<10), nil)
	for _, l := range s.lanes {
		if l, ok := l.(*nbvaLane); ok {
			hits := reflect.ValueOf(&l.hits).Elem()
			if at := hits.FieldByName("at"); at.Cap() != hitBlock {
				t.Errorf("a slab of %d start bytes after a block of them, want %d", at.Cap(), hitBlock)
			}
			if block := hits.FieldByName("block"); !block.IsNil() {
				t.Errorf("the session keeps %d bytes of the chunk past the scan", block.Len())
			}
		}
	}
}

// BenchmarkWindowedLane prices the windowed group's lane alone, its
// prefilter stream included, on a reused session: the seven datasets at
// scale 1 over 64 KiB of their own planted traffic, and the ledger's
// `.keyNN.` ruleset over 256 KiB of noise no literal starts in, with one
// literal planted per 4 KiB and per 64 B.
func BenchmarkWindowedLane(b *testing.B) {
	type input struct {
		name     string
		patterns []string
		body     []byte
	}
	var ins []input
	for _, name := range workload.Names {
		d := workload.MustGenerate(name, 1, 1)
		ins = append(ins, input{name, d.Patterns, d.Input(64<<10, 1)})
	}
	var keys []string
	for i := 0; i < 24; i++ {
		keys = append(keys, fmt.Sprintf(".key%02d.", i))
	}
	rng := rand.New(rand.NewSource(1))
	for _, every := range []int{4096, 64} {
		body := make([]byte, 256<<10)
		for i := range body {
			body[i] = byte('i' + rng.Intn(18))
		}
		for p := every / 2; p+8 < len(body); p += every {
			copy(body[p:], fmt.Sprintf("key%02d", rng.Intn(len(keys))))
		}
		ins = append(ins, input{fmt.Sprintf("keyNN/every%d", every), keys, body})
	}
	for _, in := range ins {
		b.Run(in.name, func(b *testing.B) {
			m := compilePar(b, in.patterns, Options{})
			s := m.NewSession()
			l, ok := s.lanes[0].(*windowLane)
			if !ok {
				b.Fatal("the ruleset has no windowed group")
			}
			l.scan(s, in.body, 0) // builds the unions
			b.SetBytes(int64(len(in.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.reset()
				s.buf = s.buf[:0]
				l.scan(s, in.body, 0)
			}
		})
	}
}

// TestWindowedBuildCost bounds the build Relower defers: the union DFAs of
// Snort@1.0's windowed group, 22 linear patterns in one union of 629
// states, which a scan pays once per group membership. It allocates 1 343
// times and 687 KB; the ceilings are about 10 % above.
func TestWindowedBuildCost(t *testing.T) {
	m := compilePar(t, workload.MustGenerate("Snort", 1, 1).Patterns, Options{})
	g := m.kinds.win.g
	if g == nil || len(g.members) != 22 {
		t.Fatalf("Snort@1.0 lowers to a windowed group of %v", g)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const builds = 10
	for i := 0; i < builds; i++ {
		(&windowGroup{members: g.members, cap: g.cap}).dfas()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.Mallocs - before.Mallocs) / builds; perOp > 1480 {
		t.Errorf("%d allocs per build, ceiling 1480", perOp)
	}
	if perOp := (after.TotalAlloc - before.TotalAlloc) / builds; perOp > 756<<10 {
		t.Errorf("%d bytes allocated per build, ceiling %d", perOp, 756<<10)
	}
}
