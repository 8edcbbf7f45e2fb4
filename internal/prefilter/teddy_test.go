package prefilter

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/simdscan"
)

// eachKernel runs f once per Teddy kernel this host has: the portable one,
// and the AVX2 one where simdscan chose it at init.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	host := simdscan.UseAVX2
	defer func() { simdscan.UseAVX2 = host }()
	for _, avx2 := range []bool{false, true} {
		if avx2 && !host {
			continue
		}
		simdscan.UseAVX2 = avx2
		t.Run(hostKernel("go", "avx2"), f)
	}
}

// hostKernel returns portable, or avx2 while simdscan runs the AVX2 kernel.
func hostKernel(portable, avx2 string) string {
	if simdscan.UseAVX2 {
		return avx2
	}
	return portable
}

// TestTierSelection pins the representation each literal-set shape
// compiles to, and the name of the kernel it runs under each Teddy kernel.
func TestTierSelection(t *testing.T) {
	eachKernel(t, testTierSelection)
}

func testTierSelection(t *testing.T) {
	cases := []struct {
		lits   []string
		want   Tier
		kernel string
	}{
		{[]string{"a"}, TierMemchr, "memchr"},
		{[]string{"a", "a"}, TierMemchr, "memchr"},
		{[]string{"a", "b"}, TierByteTable, "bytetable"},
		{[]string{"ab"}, TierTeddy, hostKernel("teddy fp2", "teddy fp2 avx2")},
		{[]string{"needle", "pin", "tack"}, TierTeddy, hostKernel("teddy fp3", "teddy fp3 avx2")},
		{[]string{"key07", "key19"}, TierTeddy, hostKernel("teddy fp3", "teddy fp3 avx2")},
		{[]string{"ab", "c"}, TierAC, "ac"}, // single-byte literal blocks fingerprints
	}
	var many []string
	for i := 0; i < 33; i++ {
		many = append(many, fmt.Sprintf("lit%02d", i))
	}
	cases = append(cases, struct {
		lits   []string
		want   Tier
		kernel string
	}{many, TierAC, "ac"}) // over the teddy cap

	for _, tc := range cases {
		lits := make([][]byte, len(tc.lits))
		w := 1
		for i, l := range tc.lits {
			lits[i] = []byte(l)
			if len(l) > w {
				w = len(l)
			}
		}
		s, err := NewSet(lits, w+2)
		if err != nil {
			t.Fatalf("%q: %v", tc.lits, err)
		}
		if s.Tier() != tc.want {
			t.Errorf("%q: tier %v, want %v", tc.lits, s.Tier(), tc.want)
		}
		if s.Kernel() != tc.kernel {
			t.Errorf("%q: kernel %q, want %q", tc.lits, s.Kernel(), tc.kernel)
		}
	}
}

// streamRanges collects every (base, len) range a stream delivers to the
// automaton over the given chunking, plus the reset positions — the full
// observable behavior of a Set behind Scan.
func streamRanges(s *Set, data []byte, chunkSizes []int) string {
	st := s.NewStream()
	var out []string
	pos := 0
	ci := 0
	for pos < len(data) {
		n := chunkSizes[ci%len(chunkSizes)]
		ci++
		if n < 1 {
			n = 1
		}
		if pos+n > len(data) {
			n = len(data) - pos
		}
		st.Scan(data[pos:pos+n],
			func(base int, d []byte) { out = append(out, fmt.Sprintf("%d+%d", base, len(d))) },
			func() { out = append(out, "R") })
		pos += n
	}
	return fmt.Sprint(out, st.Stats().LiteralHits)
}

// FuzzFingerprintDifferential proves the fingerprint tier never drops a
// candidate: for any teddy-eligible literal set, a Set compiled to the
// Teddy scanner must deliver byte-for-byte the same candidate ranges,
// resets, and literal-hit count as the same literals compiled straight to
// the Aho-Corasick DFA — including literal occurrences split across chunk
// boundaries, which the fuzzer controls through the chunk size byte —
// under each Teddy kernel the host has.
func FuzzFingerprintDifferential(f *testing.F) {
	f.Add([]byte("ab,cd"), []byte("xxabyycdxx"), uint8(3))
	f.Add([]byte("needle"), []byte("say needle twice: needleneedle"), uint8(1))
	f.Add([]byte("aa,aaa,aaaa"), []byte("aaaaaaaaaa"), uint8(4))
	// Literals of >= 5 and >= 9 bytes in chunks longer than a block: the
	// 32-byte block loop, clean and dirty.
	f.Add([]byte("key07,key19"), bytes.Repeat([]byte("noise without a literal key0 ey19 then key19 and key07key07 "), 4), uint8(63))
	f.Add([]byte("needlework,haystacks"), bytes.Repeat([]byte("................needlewor haystacks....................needlework"), 4), uint8(40))
	f.Fuzz(func(t *testing.T, litSpec, data []byte, chunk uint8) {
		// litSpec: comma-separated literals, invalid shapes skipped.
		var lits [][]byte
		start := 0
		for i := 0; i <= len(litSpec); i++ {
			if i == len(litSpec) || litSpec[i] == ',' {
				if i > start {
					lits = append(lits, litSpec[start:i])
				}
				start = i + 1
			}
		}
		if len(lits) == 0 {
			t.Skip()
		}
		w := 0
		for _, l := range lits {
			if len(l) > w {
				w = len(l)
			}
		}
		teddySet, err := NewSet(lits, w)
		if err != nil || teddySet.Tier() != TierTeddy {
			t.Skip() // not a fingerprint-tier shape
		}
		acSet, err := NewSetAC(lits, w)
		if err != nil {
			t.Fatal(err)
		}

		sizes := []int{1 + int(chunk)%64}
		want := streamRanges(acSet, data, sizes)
		eachKernel(t, func(t *testing.T) {
			if got := streamRanges(teddySet, data, sizes); got != want {
				t.Fatalf("lits %q chunk %d:\nteddy %s\nac    %s", lits, sizes[0], got, want)
			}
		})
	})
}

// TestFingerprintDifferentialSeeds runs the fuzz seeds as a plain test so
// `go test` exercises the differential without -fuzz.
func TestFingerprintDifferentialSeeds(t *testing.T) {
	lits := [][]byte{[]byte("ab"), []byte("abcd"), []byte("dcba"), []byte("bb")}
	data := []byte("zabz abcd dcbabb ab abcdcba zzzz bb")
	w := 4
	teddySet, err := NewSet(lits, w)
	if err != nil {
		t.Fatal(err)
	}
	if teddySet.Tier() != TierTeddy {
		t.Fatalf("tier %v, want teddy", teddySet.Tier())
	}
	acSet, err := NewSetAC(lits, w)
	if err != nil {
		t.Fatal(err)
	}
	eachKernel(t, func(t *testing.T) {
		for _, sizes := range [][]int{{1}, {2}, {5}, {len(data)}} {
			got := streamRanges(teddySet, data, sizes)
			want := streamRanges(acSet, data, sizes)
			if got != want {
				t.Fatalf("chunks %v:\nteddy %s\nac    %s", sizes, got, want)
			}
		}
	})
}

// TestDirtyBlocksStat: the stream reports how many blocks the kernel
// could not clear — none on traffic that carries no literal fragment, the
// half-block holding the candidate per planted literal, under either
// kernel — and Reset clears it.
func TestDirtyBlocksStat(t *testing.T) {
	eachKernel(t, testDirtyBlocksStat)
}

func testDirtyBlocksStat(t *testing.T) {
	set, err := NewSet([][]byte{[]byte("key07"), []byte("key19")}, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := set.NewStream()
	scan := func(data []byte) Stats {
		st.Scan(data, func(int, []byte) {}, func() {})
		return st.Stats()
	}
	clean := bytes.Repeat([]byte("zzzzzzzzyk"), 100)
	if got := scan(clean); got.DirtyBlocks != 0 || got.LiteralHits != 0 {
		t.Fatalf("clean traffic: %+v, want no dirty block and no hit", got)
	}
	planted := append([]byte(nil), clean...)
	for p := 100; p < len(planted); p += 200 {
		copy(planted[p:], "key19")
	}
	got := scan(planted)
	if got.LiteralHits != 5 || got.DirtyBlocks != 5 {
		t.Fatalf("5 planted literals: %+v, want 5 hits and 5 dirty blocks", got)
	}
	if again := scan(clean); again.DirtyBlocks != got.DirtyBlocks {
		t.Fatalf("a clean chunk moved DirtyBlocks %d -> %d", got.DirtyBlocks, again.DirtyBlocks)
	}
	st.Reset()
	if got := scan(clean); got.DirtyBlocks != 0 {
		t.Fatalf("after Reset: %d dirty blocks, want 0", got.DirtyBlocks)
	}
}
