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

// teddyCutScan is teddyCutEnds that also returns the state after each
// chunk.
func teddyCutScan(t *Teddy, data []byte, cuts []int) (out []int, states []TeddyState) {
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
		states = append(states, st)
	}
	return out, states
}

// TestTeddyWholeBuffer scans whole buffers: a short one, and traffic made
// of literal tails, so nearly every block holds a candidate, with literals
// planted in it.
func TestTeddyWholeBuffer(t *testing.T) {
	defeated := bytes.Repeat([]byte("bcabab"), 700)
	for p := 100; p < len(defeated); p += 333 {
		copy(defeated[p:], [][]byte{[]byte("abcab"), []byte("ccabcabcc")}[p%2])
	}
	cases := []struct {
		lits []string
		data []byte
	}{
		{[]string{"needle", "nd", "xyz", "eedl"}, []byte("find the needle and the xyzzy needle end")},
		{[]string{"abcab", "ccabcabcc"}, defeated},
	}
	eachKernel(t, func(t *testing.T) {
		for _, tc := range cases {
			lits := byteLits(tc.lits)
			td, err := NewTeddy(lits)
			if err != nil {
				t.Fatal(err)
			}
			got := teddyEnds(td, tc.data, []int{len(tc.data)})
			if want := refEnds(tc.data, lits); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%q: ends: got %v want %v", tc.lits, got, want)
			}
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

func byteLits(lits []string) [][]byte {
	out := make([][]byte, len(lits))
	for i, l := range lits {
		out[i] = []byte(l)
	}
	return out
}

// fpSets has literal sets of fingerprint 2 and 3, the shortest literal
// deciding it.
var fpSets = [][]string{
	{"ab", "abcabc"},
	{"abc", "cabcab"},
	{"abcab", "ccabcabcc"},
}

// TestTeddyStrideBoundaries plants one literal at every offset of a stream
// longer than two of the kernel's 32-byte strides, and a second one at a
// varying distance, and cuts the stream around it, for fingerprint 2 and
// 3: the occurrence lands in a chunk's 2-byte scalar head, straddles a
// cut, straddles the edge between two blocks, sits in a tail shorter than
// a block, and in chunks shorter than a block or empty.
func TestTeddyStrideBoundaries(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		const n = 2*vecBlock + 40
		fixed := [][]int{
			nil, {40}, {40, 40}, {33}, {34}, {35}, {1, 35}, {2, 36, 70}, {1, 2, 3},
			{7}, {16}, {31}, {32}, {66}, {67}, {68}, {34, 66}, {36, 68, 100},
		}
		for _, set := range fpSets {
			lits := byteLits(set)
			td, err := NewTeddy(lits)
			if err != nil {
				t.Fatal(err)
			}
			for _, lit := range lits {
				for p := 0; p+len(lit) <= n; p++ {
					data := bytes.Repeat([]byte{'.'}, n)
					copy(data[p:], lit)
					copy(data[(p+50)%(n-10):], lit)
					want := refEnds(data, lits)
					// Cuts before, inside, at the end of and after the literal.
					around := [][]int{{p}, {p + 1}, {p + len(lit)/2}, {p + len(lit) - 1}, {p + len(lit)}, {max(p-2, 0), p + len(lit) + 1}}
					for _, cuts := range append(fixed, around...) {
						if got := teddyCutEnds(td, data, cuts); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("fp %d, %q at %d, cuts %v: got %v want %v", td.fp, lit, p, cuts, got, want)
						}
					}
				}
			}
		}
	})
}

// FuzzTeddyBlocks holds the AVX2 block function to its Go twin, call for
// call to the end of the chunk: random nibble tables of the fingerprint 2
// shape (position 0 all ones) and the 3 shape, each bit set with a
// random density, over a random chunk from a start offset i >= 2.
func FuzzTeddyBlocks(f *testing.F) {
	f.Add(int64(1), false, uint8(40), uint8(2), bytes.Repeat([]byte("fuzz the kernel "), 12))
	f.Add(int64(2), true, uint8(8), uint8(5), bytes.Repeat([]byte{0, 0xff, 0x0f, 0xf0, 'a'}, 60))
	f.Add(int64(3), false, uint8(200), uint8(33), []byte("0123456789abcdef0123456789abcdef0123456789"))
	f.Add(int64(4), true, uint8(1), uint8(0), make([]byte, 300))
	f.Fuzz(func(t *testing.T, seed int64, fp2 bool, density, start uint8, chunk []byte) {
		if !UseAVX2 {
			t.Skip("no AVX2 on this host")
		}
		rng := rand.New(rand.NewSource(seed))
		var nib [teddyMaxFinger][2][16]uint8
		for j := range nib {
			for h := range nib[j] {
				for x := range nib[j][h] {
					for k := 0; k < teddyBuckets; k++ {
						if rng.Intn(256) < int(density) || fp2 && j == 0 {
							nib[j][h][x] |= 1 << k
						}
					}
				}
			}
		}
		fused := fuse(&nib)
		for i := 2 + int(start)%vecBlock; ; {
			j, cand := teddyAVX2(&nib, chunk, i)
			gj, gcand := teddyBlocks(&fused, chunk, i)
			if j != gj || cand != gcand {
				t.Fatalf("from %d of %d bytes: avx2 (%d, %#x), go (%d, %#x)", i, len(chunk), j, cand, gj, gcand)
			}
			if cand == 0 {
				break
			}
			i = j + vecBlock
		}
	})
}

// FuzzTeddyKernelEquivalence holds each kernel the host has to a naive
// search of the concatenated stream, hit for hit, and the kernels to each
// other, state for state after every chunk, DirtyBlocks included: random
// literal sets whose shortest member has 2…12 bytes (fingerprint 2 and
// 3), input that is mostly fragments of those literals (so blocks hold
// candidates, candidates fail late, and clean runs are short), random
// cuts.
func FuzzTeddyKernelEquivalence(f *testing.F) {
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
				pos += 1 + rng.Intn(2*vecBlock)
			default:
				pos += 1 + rng.Intn(200)
			}
			cuts = append(cuts, pos)
		}
		want := refEnds(data, lits)
		defer func(host bool) { UseAVX2 = host }(UseAVX2)
		var portable []TeddyState
		for _, avx2 := range hostKernels() {
			UseAVX2 = avx2
			got, states := teddyCutScan(td, data, cuts)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s kernel, fp %d, lits %q, cuts %v, data %q:\n got %v\nwant %v", kernelName(avx2), td.fp, lits, cuts, data, got, want)
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
// literals, so fingerprint 3.
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

// BenchmarkTeddy24 is the sparse case, the clean path of every block:
// noise with no literal in it (literal_bulk's shape between its plants).
func BenchmarkTeddy24(b *testing.B) {
	td, _ := benchKeySet(b)
	benchScan(b, td, benchNoise(rand.New(rand.NewSource(1))), nil)
}

// BenchmarkTeddyDense is small_dense's shape: one literal per 64 bytes,
// so every 32-byte block is dirty about every other time.
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
// literal tails ("ey07", "y13", …), so no literal occurs and every
// fingerprint candidate goes to verify and fails there: nearly every
// 16-byte half-block is dirty.
func BenchmarkTeddyAllDirty(b *testing.B) {
	td, lits := benchKeySet(b)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 0, 1<<20)
	for len(data)+4 <= cap(data) {
		data = append(data, lits[rng.Intn(len(lits))][1+rng.Intn(2):]...)
	}
	benchScan(b, td, data, func(b *testing.B, st TeddyState) {
		if blocks := int64(len(data) / (vecBlock / 2)); st.DirtyBlocks() < blocks*9/10 {
			b.Fatalf("%d dirty blocks of %d: the input does not defeat the filter", st.DirtyBlocks(), blocks)
		}
	})
}
