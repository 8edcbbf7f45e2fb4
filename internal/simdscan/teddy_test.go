package simdscan

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// eachKernel runs f once per scan kernel this host has — the portable one,
// and the AVX2 one where the CPU has it — with UseAVX2 set to choose it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	defer func(host bool) { UseAVX2 = host }(UseAVX2)
	for _, avx2 := range hostKernels() {
		UseAVX2 = avx2
		t.Run(kernelName(avx2), f)
	}
}

// hostKernels lists the values of UseAVX2 this host can scan with.
func hostKernels() []bool {
	if hasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

func kernelName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// refEnds is the oracle: every offset in data at which some literal ends,
// found by brute force, deduplicated and in increasing order.
func refEnds(data []byte, lits [][]byte) []int {
	var out []int
	for i := range data {
		for _, l := range lits {
			start := i - len(l) + 1
			if start >= 0 && bytes.Equal(data[start:i+1], l) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// teddyEnds scans data through t in chunks of the given sizes (cycled),
// returning global end offsets.
func teddyEnds(t *Teddy, data []byte, chunkSizes []int) []int {
	var cuts []int
	for pos, ci := 0, 0; pos < len(data); ci++ {
		n := chunkSizes[ci%len(chunkSizes)]
		if n < 1 {
			n = 1
		}
		pos += n
		cuts = append(cuts, pos)
	}
	return teddyCutEnds(t, data, cuts)
}

// teddyCutEnds scans data through t cut at the given ascending offsets (a
// repeated offset feeds an empty chunk; the rest of data is the last
// chunk), returning global end offsets.
func teddyCutEnds(t *Teddy, data []byte, cuts []int) []int {
	out, _ := teddyCutScan(t, data, cuts)
	return out
}

// teddyCutScan is teddyCutEnds that also returns the fingerprint state
// after each chunk, the part of TeddyState both kernels define alike.
func teddyCutScan(t *Teddy, data []byte, cuts []int) (out []int, states [][2]uint8) {
	var st TeddyState
	var hist []byte
	pos := 0
	for _, cut := range append(cuts, len(data)) {
		if cut > len(data) {
			cut = len(data)
		}
		base := pos
		st = t.Scan(data[pos:cut], hist, st, func(end int) {
			out = append(out, base+end)
		})
		// Maintain maxLen-1 bytes of history like a streaming caller.
		keep := t.maxLen - 1
		if keep > cut {
			keep = cut
		}
		hist = append([]byte{}, data[cut-keep:cut]...)
		pos = cut
		states = append(states, [2]uint8{st.r1, st.r2})
	}
	return out, states
}

func TestTeddyWholeBuffer(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		lits := [][]byte{[]byte("needle"), []byte("nd"), []byte("xyz"), []byte("eedl")}
		td, err := NewTeddy(lits)
		if err != nil {
			t.Fatal(err)
		}
		data := []byte("find the needle and the xyzzy needle end")
		got := teddyEnds(td, data, []int{len(data)})
		want := refEnds(data, lits)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ends: got %v want %v", got, want)
		}
	})
}

func TestTeddyEligibility(t *testing.T) {
	if _, err := NewTeddy(nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewTeddy([][]byte{[]byte("a")}); err == nil {
		t.Error("1-byte literal accepted")
	}
	var many [][]byte
	for i := 0; i < TeddyMaxLiterals+1; i++ {
		many = append(many, []byte(fmt.Sprintf("lit%02d", i)))
	}
	if _, err := NewTeddy(many); err == nil {
		t.Error("oversized set accepted")
	}
	// Duplicates collapse below the cap.
	if _, err := NewTeddy(append(many[:TeddyMaxLiterals:TeddyMaxLiterals], many[0])); err != nil {
		t.Errorf("deduplicated set rejected: %v", err)
	}
}

func TestTeddyFingerprintLength(t *testing.T) {
	td, _ := NewTeddy([][]byte{[]byte("ab"), []byte("longer")})
	if td.fp != 2 {
		t.Errorf("fp = %d, want 2 (shortest literal has 2 bytes)", td.fp)
	}
	td3, _ := NewTeddy([][]byte{[]byte("abc"), []byte("longer")})
	if td3.fp != 3 {
		t.Errorf("fp = %d, want 3", td3.fp)
	}
}

// TestTeddyChunked holds chunked scans — including 1-byte chunks, which
// put every literal across a boundary — to the whole-buffer oracle.
func TestTeddyChunked(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		lits := [][]byte{[]byte("ab"), []byte("abcd"), []byte("bcda"), []byte("ddd"), []byte("cab")}
		td, err := NewTeddy(lits)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte('a' + rng.Intn(4))
		}
		want := refEnds(data, lits)
		for _, sizes := range [][]int{{1}, {2}, {3, 7}, {64}, {1, 100}, {4096}} {
			got := teddyEnds(td, data, sizes)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("chunks %v: got %d ends, want %d", sizes, len(got), len(want))
			}
		}
	})
}

// TestTeddyRandomSets cross-checks random literal sets over random inputs
// against the brute-force oracle, whole-buffer and chunked.
func TestTeddyRandomSets(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 200; trial++ {
			nl := 1 + rng.Intn(TeddyMaxLiterals)
			lits := make([][]byte, 0, nl)
			for i := 0; i < nl; i++ {
				l := make([]byte, 2+rng.Intn(6))
				for j := range l {
					l[j] = byte('a' + rng.Intn(3))
				}
				lits = append(lits, l)
			}
			td, err := NewTeddy(lits)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 100+rng.Intn(900))
			for i := range data {
				data[i] = byte('a' + rng.Intn(4))
			}
			want := refEnds(data, lits)
			sizes := []int{1 + rng.Intn(50)}
			if got := teddyEnds(td, data, sizes); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d (lits %q, chunk %v): got %v want %v", trial, lits, sizes, got, want)
			}
		}
	})
}

func TestTeddyHistoryBound(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		td, _ := NewTeddy([][]byte{[]byte("abcde")})
		if td.maxLen != 5 {
			t.Fatalf("maxLen = %d, want 5", td.maxLen)
		}
		// Occurrence split 4+1 across a boundary with exactly MaxLen-1 history.
		var ends []int
		st := td.Scan([]byte("abcd"), nil, TeddyState{}, func(int) { t.Fatal("early hit") })
		td.Scan([]byte("e"), []byte("abcd"), st, func(end int) { ends = append(ends, end) })
		if len(ends) != 1 || ends[0] != 0 {
			t.Fatalf("cross-boundary ends = %v, want [0]", ends)
		}
	})
}

// strideSets has one literal set per pair-filter stride: the shortest
// literal decides it (2 bytes: off, 3–4: 2, 5 and up: 4).
var strideSets = []struct {
	stride int
	lits   []string
}{
	{0, []string{"ab", "abcabc"}},
	{2, []string{"abc", "cabcab"}},
	{2, []string{"abca", "bbbbbb"}},
	{4, []string{"abcab", "ccabcabcc"}},
	{4, []string{"abcabcab"}},
}

func TestTeddyStride(t *testing.T) {
	for _, set := range strideSets {
		td, err := NewTeddy(byteLits(set.lits))
		if err != nil {
			t.Fatal(err)
		}
		if td.stride != set.stride {
			t.Errorf("%q: stride %d, want %d", set.lits, td.stride, set.stride)
		}
	}
}

func byteLits(lits []string) [][]byte {
	out := make([][]byte, len(lits))
	for i, l := range lits {
		out[i] = []byte(l)
	}
	return out
}

// TestTeddyStrideBoundaries plants one literal at every offset of a short
// stream and cuts the stream around it, for each stride: the occurrence
// lands in the first (always exact) block of a chunk, straddles the cut,
// straddles the edge between a block the skip loop cleared and the dirty
// one, sits in the block after a dirty one (not probed) and in the one
// after that (probed again), and in chunks shorter than a block or empty.
func TestTeddyStrideBoundaries(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		cutSets := [][]int{
			nil, {40}, {40, 40}, {33}, {40, 45}, {40, 47, 50}, {7}, {8}, {9}, {16}, {24}, {25}, {1, 2, 3},
			{34}, {35}, {1, 35}, {2, 36, 70}, // an AVX2 block: 2 scalar bytes, then 32
		}
		for _, set := range strideSets {
			lits := byteLits(set.lits)
			td, err := NewTeddy(lits)
			if err != nil {
				t.Fatal(err)
			}
			for _, lit := range lits {
				for p := 0; p+len(lit) <= 120; p++ {
					data := bytes.Repeat([]byte{'.'}, 120)
					copy(data[p:], lit)
					copy(data[(p+50)%100:], lit) // a second one, at a varying distance
					want := refEnds(data, lits)
					for _, cuts := range cutSets {
						if got := teddyCutEnds(td, data, cuts); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("stride %d, %q at %d, cuts %v: got %v want %v", set.stride, lit, p, cuts, got, want)
						}
					}
				}
			}
		}
	})
}

// TestTeddyBackoff: traffic made of literal tails defeats the filter, so
// the unprobed run behind a dirty block doubles until nearly every block
// takes the exact loop — which still finds each literal planted in it —
// and one clean stretch brings the probes back. The AVX2 kernel has no
// pair filter; its DirtyBlocks counts the blocks holding a candidate,
// nearly all of them on the first input and one on the second.
func TestTeddyBackoff(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		lits := byteLits([]string{"abcab", "ccabcabcc"})
		td, err := NewTeddy(lits)
		if err != nil {
			t.Fatal(err)
		}
		dirty := bytes.Repeat([]byte("bcabab"), 700)
		for p := 100; p < len(dirty); p += 333 {
			copy(dirty[p:], lits[p%2])
		}
		var got []int
		st := td.Scan(dirty, nil, TeddyState{}, func(end int) { got = append(got, end) })
		if want := refEnds(dirty, lits); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("defeated filter: got %v want %v", got, want)
		}
		if blocks := int64(len(dirty) / teddyBlock); st.DirtyBlocks() < blocks*9/10 {
			t.Errorf("%d dirty blocks of %d: the filter was not defeated", st.DirtyBlocks(), blocks)
		}
		before := st.DirtyBlocks()
		clean := bytes.Repeat([]byte{'.'}, 4096)
		copy(clean[3000:], lits[0])
		hits := 0
		st = td.Scan(clean, dirty[len(dirty)-td.maxLen+1:], st, func(int) { hits++ })
		want := int64(2) // the dirty block and the unprobed one behind it
		if UseAVX2 {
			want = 1
		}
		if d := st.DirtyBlocks() - before; hits != 1 || d != want {
			t.Errorf("clean chunk with one literal: %d hits, %d dirty blocks; want 1 and %d", hits, d, want)
		}
	})
}

// FuzzTeddyStrideEquivalence holds each kernel the host has to a naive
// search of the concatenated stream, hit for hit, and the kernels to each
// other, state for state after every chunk: random literal sets whose
// shortest member has 2…12 bytes (so the filter is off and at stride 2
// and 4), input that is mostly fragments of those literals (so probes are
// dirty, candidates fail late, and clean runs are short), random cuts.
func FuzzTeddyStrideEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), []byte("hello, fragments \x80\x91\xa2 and noise"))
	f.Add(int64(2), uint8(1), uint8(1), bytes.Repeat([]byte{0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 40))
	f.Add(int64(3), uint8(3), uint8(24), bytes.Repeat([]byte{0xff, 0xfe, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, 30))
	f.Add(int64(4), uint8(7), uint8(31), bytes.Repeat([]byte("\x84................................"), 20))
	f.Fuzz(func(t *testing.T, seed int64, shortest, nlits uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		minLen := 2 + int(shortest)%11
		lits := make([][]byte, 1+int(nlits)%TeddyMaxLiterals)
		for i := range lits {
			l := make([]byte, minLen)
			if i > 0 {
				l = make([]byte, minLen+rng.Intn(6))
			}
			for j := range l {
				l[j] = byte('a' + rng.Intn(3))
			}
			lits[i] = l
		}
		td, err := NewTeddy(lits)
		if err != nil {
			t.Fatal(err)
		}
		// A raw byte with its top bit set becomes a fragment of a literal
		// (often a whole one), any other byte one byte of a 5-letter
		// alphabet, two letters of which no literal uses.
		var data []byte
		for _, b := range raw {
			if b < 0x80 {
				data = append(data, 'a'+b%5)
				continue
			}
			l := lits[int(b&0x7f)%len(lits)]
			from := 0
			if rng.Intn(2) == 0 {
				from = rng.Intn(len(l))
			}
			data = append(data, l[from:from+1+rng.Intn(len(l)-from)]...)
		}
		var cuts []int
		for pos := 0; pos < len(data); {
			switch rng.Intn(4) {
			case 0:
				pos += rng.Intn(4) // 0: an empty chunk
			case 1:
				pos += 1 + rng.Intn(2*teddyBlock)
			default:
				pos += 1 + rng.Intn(200)
			}
			cuts = append(cuts, pos)
		}
		want := refEnds(data, lits)
		defer func(host bool) { UseAVX2 = host }(UseAVX2)
		var portable [][2]uint8
		for _, avx2 := range hostKernels() {
			UseAVX2 = avx2
			got, states := teddyCutScan(td, data, cuts)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s kernel, stride %d, lits %q, cuts %v, data %q:\n got %v\nwant %v", kernelName(avx2), td.stride, lits, cuts, data, got, want)
			}
			if !avx2 {
				portable = states
			} else if fmt.Sprint(states) != fmt.Sprint(portable) {
				t.Fatalf("lits %q, cuts %v, data %q: states after each chunk\navx2 %v\n  go %v", lits, cuts, data, states, portable)
			}
		}
	})
}

// benchKeySet is the ledger's `.keyNN.` literal union: 24 five-byte
// literals, so fingerprint 3 and stride 4.
func benchKeySet(b *testing.B) (*Teddy, [][]byte) {
	var lits [][]byte
	for i := 0; i < 24; i++ {
		lits = append(lits, []byte(fmt.Sprintf("key%02d", i)))
	}
	td, err := NewTeddy(lits)
	if err != nil {
		b.Fatal(err)
	}
	return td, lits
}

// benchNoise is 1 MiB over 'i'..'z', which no literal can start in.
func benchNoise(rng *rand.Rand) []byte {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte('i' + rng.Intn(18))
	}
	return data
}

// benchScan runs one sub-benchmark per kernel the host has, calling check
// with each kernel's last state.
func benchScan(b *testing.B, td *Teddy, data []byte, check func(b *testing.B, st TeddyState)) {
	defer func(host bool) { UseAVX2 = host }(UseAVX2)
	for _, avx2 := range hostKernels() {
		UseAVX2 = avx2
		b.Run(kernelName(avx2), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var st TeddyState
			for i := 0; i < b.N; i++ {
				st = td.Scan(data, nil, TeddyState{}, func(int) {})
			}
			if check != nil {
				check(b, st)
			}
		})
	}
}

// BenchmarkTeddy24 is the sparse case the pair filter exists for: noise
// with no literal in it (literal_bulk's shape between its plants).
func BenchmarkTeddy24(b *testing.B) {
	td, _ := benchKeySet(b)
	benchScan(b, td, benchNoise(rand.New(rand.NewSource(1))), nil)
}

// BenchmarkTeddyDense is small_dense's shape: one literal per 64 bytes,
// so the filter is dirty on about a block in four and backs off.
func BenchmarkTeddyDense(b *testing.B) {
	td, lits := benchKeySet(b)
	rng := rand.New(rand.NewSource(1))
	data := benchNoise(rng)
	for p := 32; p+8 < len(data); p += 64 {
		copy(data[p:], lits[rng.Intn(len(lits))])
	}
	benchScan(b, td, data, nil)
}

// BenchmarkTeddyAllDirty is the adversarial case: input made only of
// literal tails ("ey07", "y13", …), so no literal occurs, every probe is
// dirty and every fingerprint candidate goes to verify and fails there:
// under either kernel's DirtyBlocks, nearly every block is dirty.
func BenchmarkTeddyAllDirty(b *testing.B) {
	td, lits := benchKeySet(b)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 0, 1<<20)
	for len(data)+4 <= cap(data) {
		data = append(data, lits[rng.Intn(len(lits))][1+rng.Intn(2):]...)
	}
	benchScan(b, td, data, func(b *testing.B, st TeddyState) {
		if blocks := int64(len(data) / teddyBlock); st.DirtyBlocks() < blocks*9/10 {
			b.Fatalf("%d dirty blocks of %d: the input does not defeat the filter", st.DirtyBlocks(), blocks)
		}
	})
}
