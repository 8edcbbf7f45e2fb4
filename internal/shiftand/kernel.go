package shiftand

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/simdscan"
)

// This file holds the specialized scan kernels of the fast-path engine.
// All kernels execute whole chunks with zero allocations, selected at
// compile time by New:
//
//   - kernel64: machines of at most 64 packed states run on the
//     word-at-a-time simdscan.ShiftAnd64 kernel — a plain uint64 state
//     word, input walked 8 bytes per lane load with the byte-class
//     lookups issued independently and the final-state test hoisted to
//     one branch per block.
//   - kernel128: machines of 65–128 states run on simdscan.ShiftAnd128 —
//     the same block structure with the state in two register words and
//     the cross-word carry fused into the update chain (no bitvec
//     indirection, no per-word slice walk).
//   - the batched multi-word path fuses the four bitvec operations of
//     Step (shift, or-initial, and-label, final test) into a single pass
//     over the state words per input byte, with no scratch vector.

// kernel64 is the single-word fast path, built by New when the packed
// machine fits 64 states.
type kernel64 struct {
	k simdscan.ShiftAnd64
}

func newKernel64(m *Machine) *kernel64 {
	k := &kernel64{}
	k.k.Initial = m.maskInitial.Words()[0]
	k.k.Final = m.maskFinal.Words()[0]
	for c := 0; c < 256; c++ {
		k.k.Labels[c] = m.labels[c].Words()[0]
	}
	return k
}

// scan advances state over data, reporting matches as (pattern, base+i)
// pairs. It performs no allocations.
func (k *kernel64) scan(state uint64, data []byte, base int, patternOf []int, emit func(pattern, end int)) uint64 {
	return k.k.Scan(state, data, base, func(end int, fired uint64) {
		for ; fired != 0; fired &= fired - 1 {
			emit(patternOf[bits.TrailingZeros64(fired)], end)
		}
	})
}

// kernel128 is the two-word fast path for 65–128 packed states.
type kernel128 struct {
	k simdscan.ShiftAnd128
}

func newKernel128(m *Machine) *kernel128 {
	k := &kernel128{}
	iw, fw := m.maskInitial.Words(), m.maskFinal.Words()
	k.k.Initial = [2]uint64{iw[0], iw[1]}
	k.k.Final = [2]uint64{fw[0], fw[1]}
	for c := 0; c < 256; c++ {
		lw := m.labels[c].Words()
		k.k.Labels[c] = [2]uint64{lw[0], lw[1]}
	}
	return k
}

func (k *kernel128) scan(states bitvec.Vector, data []byte, base int, patternOf []int, emit func(pattern, end int)) {
	w := states.Words()
	w[0], w[1] = k.k.Scan(w[0], w[1], data, base, func(end, word int, fired uint64) {
		for ; fired != 0; fired &= fired - 1 {
			emit(patternOf[word*64+bits.TrailingZeros64(fired)], end)
		}
	})
}

// HasKernel64 reports whether the machine compiled to the single-word
// fast path.
func (m *Machine) HasKernel64() bool { return m.k64 != nil }

// HasKernel128 reports whether the machine compiled to the two-word
// register fast path.
func (m *Machine) HasKernel128() bool { return m.k128 != nil }

// scanChunkMulti is the batched multi-word kernel: it steps the packed
// automaton over data in place on states' words. The state bits above
// NumStates stay clear because every label vector has them clear.
func (m *Machine) scanChunkMulti(states bitvec.Vector, data []byte, base int, emit func(pattern, end int)) {
	w := states.Words()
	iw := m.maskInitial.Words()
	fw := m.maskFinal.Words()
	for i := 0; i < len(data); i++ {
		lw := m.labels[data[i]].Words()
		var carry uint64
		anyFinal := false
		for j := range w {
			hi := w[j] >> 63
			w[j] = (w[j]<<1 | carry | iw[j]) & lw[j]
			carry = hi
			if w[j]&fw[j] != 0 {
				anyFinal = true
			}
		}
		if anyFinal {
			for j := range w {
				for f := w[j] & fw[j]; f != 0; f &= f - 1 {
					emit(m.patternOf[j*64+bits.TrailingZeros64(f)], base+i)
				}
			}
		}
	}
}

// scanChunk dispatches one chunk onto the specialized kernel for this
// machine, carrying state in the caller's vector.
func (m *Machine) scanChunk(states bitvec.Vector, data []byte, base int, emit func(pattern, end int)) {
	switch {
	case m.k64 != nil:
		w := states.Words()
		w[0] = m.k64.scan(w[0], data, base, m.patternOf, emit)
	case m.k128 != nil:
		m.k128.scan(states, data, base, m.patternOf, emit)
	default:
		m.scanChunkMulti(states, data, base, emit)
	}
}

// ScanChunk steps the runner's private state over data, reporting matches
// with end offsets base+i, without allocating. Sessions use it to scan
// candidate windows delivered by the prefilter.
func (r *Runner) ScanChunk(data []byte, base int, emit func(pattern, end int)) {
	r.m.scanChunk(r.states, data, base, emit)
}
