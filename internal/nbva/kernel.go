package nbva

import (
	"bytes"
	"math/bits"
)

// This file holds the chunk kernel the software matcher scans NBVA
// patterns with. Runner is the cycle simulator's model: it recomputes the
// hardware's per-cycle statistics for every byte. The kernel computes
// matches only. The control states of a machine fit one uint64, so state
// matching is one AND, the transition is one OR per matched state, and a
// bit vector costs one shift and one OR per symbol — and only while it is
// live or being entered, which is how the hardware gates its bit-vector
// phase (§3.1). An idle machine sleeps until a byte of its start class
// arrives, as the hardware power-gates an idle tile. When that class is
// one byte, bytes.IndexByte's vector loop finds it: a StartHits searches
// once per block for each byte that several kernels of a set start on,
// as the fabric matches each symbol once against every STE's class, and
// those kernels read the positions it found. The machine sleeps on past
// a start byte when the byte after it enters none of the STEs it
// enabled. Otherwise a table loop finds the start class.

// MaxKernelStates is the largest control-state count the kernel handles:
// one bit of a machine word per STE.
const MaxKernelStates = 64

// Kernel is the immutable scan program of one Machine. It is built once
// and shared by every KernelState scanning that machine.
type Kernel struct {
	labels [256]uint64 // STEs whose class contains the byte
	// start marks the bytes that move an idle machine: those in the class
	// of an STE that is enabled on every cycle. It repeats what labels and
	// reinject say so that the skip loop reads a 256-byte table (8% faster
	// on BenchmarkNBVAKernel than testing labels there).
	start [256]bool
	// lone is the one byte start marks, or -1 when it marks none (a
	// start-anchored machine) or several. With one, the idle skip is
	// bytes.IndexByte, searched once per block for every kernel that
	// starts on the byte when several do (StartHits): 1.8-2.3x the table
	// loop on BenchmarkNBVAKernel's Snort machines.
	lone int
	// next is the pair gate: the STEs beyond reinject that lone enables.
	// Lone followed by a byte outside their classes leaves the machine
	// idle with nothing fired, so the skip goes on past both. 0 turns the
	// gate off, as it is when a start STE lone enters is a BV-STE (lone
	// sets its vector) or a final (lone fires).
	next   uint64
	follow []uint64 // per STE: successor mask

	initial  uint64
	reinject uint64 // enabled on every cycle: initial, or 0 when start-anchored
	finals   uint64
	bvMask   uint64 // the BV-STEs

	bvs   []kernelBV
	bvOf  [MaxKernelStates]uint8 // STE index -> index into bvs
	words int                    // vector words of all BV-STEs together
}

// kernelBV places one BV-STE's vector in the state's word slab.
type kernelBV struct {
	off, words int
	topMask    uint64 // valid bits of the vector's last word
	readBit    uint64 // r(n): bit Size-1, in the last word
	readAll    bool   // rAll: any bit set
}

// NewKernel builds the kernel of m, or returns nil when m has more than
// MaxKernelStates control states and must be stepped with a Runner.
func NewKernel(m *Machine) *Kernel {
	if len(m.States) > MaxKernelStates {
		return nil
	}
	k := &Kernel{follow: make([]uint64, len(m.States)), lone: -1}
	for _, q := range m.Initial {
		k.initial |= 1 << q
	}
	if !m.StartAnchored {
		k.reinject = k.initial
	}
	for _, q := range m.Final {
		k.finals |= 1 << q
	}
	for i, s := range m.States {
		bit := uint64(1) << i
		for _, q := range s.Follow {
			k.follow[i] |= 1 << q
		}
		for c := range k.labels {
			if s.Class.Contains(byte(c)) {
				k.labels[c] |= bit
			}
		}
		if s.BV == nil {
			continue
		}
		k.bvMask |= bit
		k.bvOf[i] = uint8(len(k.bvs))
		top := uint(s.BV.Size-1) % 64
		bv := kernelBV{
			off:     k.words,
			words:   (s.BV.Size + 63) / 64,
			topMask: ^uint64(0) >> (63 - top),
			readBit: 1 << top,
			readAll: s.BV.Read == ReadAll,
		}
		k.bvs = append(k.bvs, bv)
		k.words += bv.words
	}
	n := 0
	for c := range k.start {
		k.start[c] = k.labels[c]&k.reinject != 0
		if k.start[c] {
			k.lone, n = c, n+1
		}
	}
	if n != 1 {
		k.lone = -1
		return k
	}
	if entered := k.labels[k.lone] & k.reinject; entered&(k.bvMask|k.finals) == 0 {
		for ; entered != 0; entered &= entered - 1 {
			k.next |= k.follow[bits.TrailingZeros64(entered)]
		}
		k.next &^= k.reinject
	}
	return k
}

// Memchr reports whether an idle machine skips to its one start byte with
// bytes.IndexByte rather than the table loop.
func (k *Kernel) Memchr() bool { return k.lone >= 0 }

// Starts is the start-byte search of a set of kernels, such as the
// machines of one scan lane: the start bytes two or more of its memchr
// kernels share, and each kernel's index into them. A byte only one
// kernel starts on gains nothing from a shared search, so that kernel
// searches for it itself. Starts is built once and shared by every
// StartHits searching for its bytes.
type Starts struct {
	kernels []*Kernel
	bytes   []byte // the shared start bytes, in order of first use
	of      []int  // per kernel: index into bytes, or -1 when it searches alone
}

// NewStarts builds the start-byte search of kernels. A nil kernel, a
// machine stepped with a Runner, has no start byte.
func NewStarts(kernels []*Kernel) *Starts {
	x := &Starts{kernels: kernels, of: make([]int, len(kernels))}
	var users [256]int
	for _, k := range kernels {
		if k != nil && k.lone >= 0 {
			users[k.lone]++
		}
	}
	var index [256]int // a byte's index into x.bytes, plus one
	for j, k := range kernels {
		x.of[j] = -1
		if k == nil || k.lone < 0 || users[k.lone] < 2 {
			continue
		}
		if index[k.lone] == 0 {
			x.bytes = append(x.bytes, byte(k.lone))
			index[k.lone] = len(x.bytes)
		}
		x.of[j] = index[k.lone] - 1
	}
	return x
}

// NewHits returns an empty search of x's start bytes for one stream.
func (x *Starts) NewHits() StartHits {
	return StartHits{x: x, ends: make([]int32, len(x.bytes)+1)}
}

// StartHits is one stream's search of a Starts: the block it last
// searched and the positions of every shared start byte in it, each
// byte's ascending, all in one slab. The positions of different bytes
// never coincide, so the slab holds at most one entry per byte of the
// largest block searched.
type StartHits struct {
	x     *Starts
	block []byte
	at    []int32 // positions, grouped by start byte
	ends  []int32 // byte b's group is at[ends[b]:ends[b+1]]
}

// Find searches block, which the kernels then scan: one bytes.IndexByte
// walk per shared start byte, whatever the number of kernels that start
// on it. The block must stay unchanged until the next Find.
func (h *StartHits) Find(block []byte) {
	h.block = block
	at := h.at[:0]
	for b, c := range h.x.bytes {
		for i := 0; i < len(block); i++ {
			j := bytes.IndexByte(block[i:], c)
			if j < 0 {
				break
			}
			i += j
			if len(at) == cap(at) {
				// Grown by hand so the slab never outgrows the block.
				at = append(make([]int32, 0, min(2*cap(at)+64, len(block))), at...)
			}
			at = append(at, int32(i))
		}
		h.ends[b+1] = int32(len(at))
	}
	h.at = at
}

// of returns the ascending positions of kernel j's start byte in the
// block last searched, and whether the byte is shared; a kernel that
// searches alone or has no memchr skip has none.
func (h *StartHits) of(j int) ([]int32, bool) {
	b := h.x.of[j]
	if b < 0 {
		return nil, false
	}
	return h.at[h.ends[b]:h.ends[b+1]], true
}

// KernelState is the configuration of one stream on one Kernel: the
// enabled STEs, which bit vectors are live (non-zero), and the vectors.
type KernelState struct {
	k       *Kernel
	enabled uint64
	live    uint64 // BV-STEs whose vector is non-zero
	vec     []uint64
}

// Words returns how many vector words a state of k keeps.
func (k *Kernel) Words() int { return k.words }

// NewState returns a state in the initial configuration that keeps its
// vectors in vec: k.Words() zero words, which the caller may cut from one
// slab shared by the states of many machines.
func (k *Kernel) NewState(vec []uint64) KernelState {
	return KernelState{k: k, enabled: k.initial, vec: vec}
}

// Reset restores the initial configuration.
func (s *KernelState) Reset() {
	s.enabled, s.live = s.k.initial, 0
	clear(s.vec)
}

// ScanChunk consumes the block h last searched, kernel j of h's Starts
// being s's, and calls emit(base+i) once for every reporting STE that
// fires at block[i] — the fires Runner.Step and FinalsFired report, byte
// for byte. It does not allocate. End anchoring is the caller's business,
// as it is with Step.
func (s *KernelState) ScanChunk(h *StartHits, j int, base int, emit func(end int)) {
	k, data := s.k, h.block
	if h.x.kernels[j] != k {
		panic("nbva: ScanChunk with another kernel's start-byte search")
	}
	hits, shared := h.of(j)
	enabled, live := s.enabled, s.live
	next := 0 // the first hit not yet passed
	for i := 0; i < len(data); i++ {
		if live == 0 && enabled == k.reinject {
			// Idle: no vector is live and only the every-cycle STEs are
			// enabled, so a byte outside their classes changes nothing.
			if k.lone >= 0 {
				if shared {
					for next < len(hits) && int(hits[next]) < i {
						next++ // passed while the machine was awake
					}
					if next == len(hits) {
						break
					}
					i = int(hits[next])
					next++
				} else {
					n := bytes.IndexByte(data[i:], byte(k.lone))
					if n < 0 {
						break
					}
					i += n
				}
				// The two steps end where an idle step over data[i+1]
				// does, so the search resumes there, idle. A chunk's
				// last byte has no successor yet and wakes the machine.
				if k.next != 0 && i+1 < len(data) && k.labels[data[i+1]]&k.next == 0 {
					continue
				}
			} else {
				for i < len(data) && !k.start[data[i]] {
					i++
				}
				if i == len(data) {
					break
				}
			}
		}
		lab := k.labels[data[i]]
		matched := enabled & lab &^ k.bvMask
		if act := (enabled | live) & k.bvMask; act != 0 {
			var read uint64
			read, live = s.stepVectors(act, enabled, lab, live)
			matched |= read
		}
		enabled = k.reinject
		for m := matched; m != 0; m &= m - 1 {
			enabled |= k.follow[bits.TrailingZeros64(m)]
		}
		for n := bits.OnesCount64(matched & k.finals); n > 0; n-- {
			emit(base + i)
		}
	}
	s.enabled, s.live = enabled, live
}

// stepVectors is the bit-vector phase for one symbol: every BV-STE in act
// (entered or live) either dies on a symbol outside its class or shifts
// its vector, ORs the entry into bit 0 and drops the overflow. It returns
// the BV-STEs whose read succeeded and the new live set.
func (s *KernelState) stepVectors(act, enabled, lab, live uint64) (read, newLive uint64) {
	k := s.k
	for ; act != 0; act &= act - 1 {
		q := bits.TrailingZeros64(act)
		bit := uint64(1) << q
		bv := &k.bvs[k.bvOf[q]]
		v := s.vec[bv.off : bv.off+bv.words]
		if lab&bit == 0 {
			// A symbol outside σ breaks every run counted so far.
			if live&bit != 0 {
				clear(v)
				live &^= bit
			}
			continue
		}
		// A dead vector is all zero, so shifting it is harmless and the
		// entry bit alone brings it to life.
		carry := enabled >> q & 1
		var any uint64
		last := len(v) - 1
		for j := 0; j < last; j++ {
			w := v[j]
			v[j] = w<<1 | carry
			carry = w >> 63
			any |= v[j]
		}
		top := (v[last]<<1 | carry) & bv.topMask
		v[last] = top
		if any|top == 0 {
			live &^= bit // every count overflowed
			continue
		}
		live |= bit
		if bv.readAll || top&bv.readBit != 0 {
			read |= bit
		}
	}
	return read, live
}
