package shiftand

import "math/bits"

// This file holds the scan loop of the fast-path engine, the one chunk
// kernel for every machine width. It fuses the four bitvec operations of
// Step (shift, or-initial, and-label, final test) into a single pass over
// the state words per input byte, with no scratch vector and no
// allocation; a machine of at most 64 states is the one-word case of the
// same loop. Sessions run it on the candidate windows the literal
// prefilter delivers; only a machine the prefilter does not guard
// (refmatch.Options.DisablePrefilter, or a linear pattern with no
// mandatory literal) runs it over every byte.

// ScanChunk steps the runner's private state over data in place,
// reporting matches with end offsets base+i, without allocating. The
// state bits above NumStates stay clear because every label vector has
// them clear.
func (r *Runner) ScanChunk(data []byte, base int, emit func(pattern, end int)) {
	m := r.m
	w := r.states.Words()
	iw, fw := m.maskInitial.Words()[:len(w)], m.maskFinal.Words()[:len(w)]
	for i, c := range data {
		lw := m.labels[c].Words()[:len(w)]
		var carry, fired uint64
		for j, old := range w {
			s := (old<<1 | carry | iw[j]) & lw[j]
			w[j], carry = s, old>>63
			fired |= s & fw[j]
		}
		if fired != 0 {
			for j := range w {
				for f := w[j] & fw[j]; f != 0; f &= f - 1 {
					emit(m.patternOf[j*64+bits.TrailingZeros64(f)], base+i)
				}
			}
		}
	}
}
