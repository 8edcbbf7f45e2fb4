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
// arrives, as the hardware power-gates an idle tile: when that class is one
// byte, bytes.IndexByte's vector loop finds it, and the machine sleeps on
// past it when the byte after it enters none of the STEs it enabled;
// otherwise a table loop finds it.

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
	// bytes.IndexByte: 1.8-2.3x the table loop on BenchmarkNBVAKernel's
	// Snort machines.
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

// ScanChunk consumes data and calls emit(base+i) once for every reporting
// STE that fires at data[i] — the fires Runner.Step and FinalsFired
// report, byte for byte. It does not allocate. End anchoring is the
// caller's business, as it is with Step.
func (s *KernelState) ScanChunk(data []byte, base int, emit func(end int)) {
	k := s.k
	enabled, live := s.enabled, s.live
	for i := 0; i < len(data); i++ {
		if live == 0 && enabled == k.reinject {
			// Idle: no vector is live and only the every-cycle STEs are
			// enabled, so a byte outside their classes changes nothing.
			if k.lone >= 0 {
				j := bytes.IndexByte(data[i:], byte(k.lone))
				if j < 0 {
					break
				}
				i += j
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
