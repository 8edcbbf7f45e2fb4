package refmatch

import (
	"repro/internal/automata"
	"repro/internal/nbva"
	"repro/internal/prefilter"
	"repro/internal/shiftand"
)

// Session is a resumable scan over one stream of input: the active state
// of every engine (Shift-And bits, prefilter scanner state and window
// history, NBVA vectors, NFA active sets, one row offset per DFA) survives
// between Feed calls, so a stream may arrive in arbitrary chunks and still
// produce exactly the matches a whole-buffer Scan would — including
// matches whose mandatory literal straddles a chunk boundary. This
// mirrors the paper's multi-flow operation (§3.3): the compiled pattern
// set — the CAM contents — is shared read-only, and each flow
// context-switches only its active vectors.
//
// A feed is engine-major: each engine scans the whole chunk in its own
// loop, the DFA patterns four to a loop in blocks of consecutive patterns,
// and a stable merge by End restores the order the package comment
// promises. Equal-End ties do not depend on the blocking, because a block
// reports in lane order and lanes are in pattern order.
//
// A Session is not safe for concurrent use; callers feed one chunk at a
// time. Many sessions may share one Matcher concurrently, since the
// Matcher is immutable after compilation.
type Session struct {
	m      *Matcher
	sa     *shiftand.Runner // always-on Shift-And state
	saFast *shiftand.Runner // prefiltered Shift-And state
	pf     *prefilter.Stream
	// Per NBVA machine, exactly one of the two is set: the state of its
	// word kernel, or a per-byte runner when it has too many control
	// states for one.
	nbvaStates []*nbva.KernelState
	nbvaSteps  []*nbva.Runner
	nfaRunners []*automata.Runner
	// dfaRows[j] is the row offset m.dfas[j] stopped in, all a DFA carries
	// between chunks.
	dfaRows []int32
	pos     int // global offset of the next byte to consume

	// buf collects every engine's matches of one feed, one ascending run
	// per engine scan, and tmp is the merge's other half. Both are reused
	// across calls.
	buf, tmp []Match

	// endPending holds end-anchored matches that fired at the most recent
	// byte. They become real matches only if that byte turns out to be the
	// last of the stream, so every non-empty feed replaces them and Finish
	// reports the survivors.
	endPending []Match
	finished   bool

	// parStats is the breakdown of the most recent ScanParallel call.
	parStats ParallelStats
}

// NewSession creates a fresh session positioned at stream offset 0.
func (m *Matcher) NewSession() *Session {
	s := &Session{m: m}
	if m.sa != nil {
		s.sa = shiftand.NewRunner(m.sa)
	}
	if m.saFast != nil {
		s.saFast = shiftand.NewRunner(m.saFast)
		s.pf = m.pf.NewStream()
	}
	s.nbvaStates = make([]*nbva.KernelState, len(m.nbvas))
	s.nbvaSteps = make([]*nbva.Runner, len(m.nbvas))
	for i, k := range m.nbvaKernels {
		if k != nil {
			s.nbvaStates[i] = k.NewState()
		} else {
			s.nbvaSteps[i] = nbva.NewRunner(m.nbvas[i])
		}
	}
	s.nfaRunners = make([]*automata.Runner, len(m.nfas))
	for i, nfa := range m.nfas {
		s.nfaRunners[i] = automata.NewRunner(nfa)
	}
	s.dfaRows = make([]int32, len(m.dfas))
	return s
}

// Pos returns the number of stream bytes consumed so far; match End
// offsets are global, i.e. relative to the start of the stream.
func (s *Session) Pos() int { return s.pos }

// PrefilterStats returns the cumulative prefilter counters of this stream
// since the last Reset (zero when no pattern is prefiltered).
func (s *Session) PrefilterStats() prefilter.Stats {
	if s.pf == nil {
		return prefilter.Stats{}
	}
	return s.pf.Stats()
}

// Feed consumes the next chunk of the stream and returns the matches
// ending inside it, with global End offsets. Matches of end-anchored
// patterns are withheld until Finish, since only then is the last byte
// known.
func (s *Session) Feed(chunk []byte) []Match {
	return append([]Match(nil), s.feed(chunk, false)...)
}

// Finish ends the stream and returns the end-anchored matches that fired
// at its final byte. Further Feed calls restart a fresh stream at global
// offset 0 (all engine state is reset).
func (s *Session) Finish() []Match {
	out := s.endPending
	s.endPending = nil
	s.finished = true
	return out
}

// Reset restores the initial configuration at stream offset 0.
func (s *Session) Reset() {
	if s.sa != nil {
		s.sa.Reset()
	}
	if s.saFast != nil {
		s.saFast.Reset()
		s.pf.Reset()
	}
	for i, st := range s.nbvaStates {
		if st != nil {
			st.Reset()
		} else {
			s.nbvaSteps[i].Reset()
		}
	}
	for _, r := range s.nfaRunners {
		r.Reset()
	}
	clear(s.dfaRows)
	s.pos = 0
	s.endPending = nil
	s.finished = false
}

// ScanInto resets the session, scans input as one whole buffer and
// appends every match to dst, which it returns. It is Matcher.Scan on a
// caller-managed (poolable) session: no per-scan runner allocations.
func (s *Session) ScanInto(input []byte, dst []Match) []Match {
	s.Reset()
	return append(dst, s.feed(input, true)...)
}

// feed is the scan core shared by Feed and the whole-buffer scans, which
// pass last: the chunk is known to end the stream, so end-anchored
// matches at its final byte are returned in place instead of waiting for
// Finish. The result is valid until the next feed.
//
// feed is engine-major. Every engine scans the whole chunk in its own
// loop and appends its matches to buf as one ascending run: the
// prefiltered Shift-And machine (over candidate windows only), the
// always-on one, then each NBVA and NFA pattern and each DFA block or tail
// pattern in pattern order. A stable merge of the runs by End is then the
// stream order, and for equal End the order the runs were appended in.
func (s *Session) feed(chunk []byte, last bool) []Match {
	if s.finished {
		s.Reset()
	}
	m := s.m
	base := s.pos
	s.pos += len(chunk)
	lastByte := s.pos - 1
	s.buf = s.buf[:0]
	if len(chunk) > 0 {
		s.endPending = s.endPending[:0]
	}
	// fire records one match of an NBVA or NFA pattern. An end-anchored
	// one counts only at the final byte of the stream, which the final
	// byte of this chunk may still turn out to be.
	fire := func(pattern, end int, endAnchored bool) {
		switch {
		case !endAnchored || (last && end == lastByte):
			s.buf = append(s.buf, Match{Pattern: pattern, End: end})
		case end == lastByte:
			s.endPending = append(s.endPending, Match{Pattern: pattern, End: end})
		}
	}

	if s.saFast != nil {
		s.pf.Scan(chunk, func(at int, data []byte) {
			s.saFast.ScanChunk(data, at, func(p, end int) {
				s.buf = append(s.buf, Match{Pattern: m.saFastPattern[p], End: end})
			})
		}, s.saFast.Reset)
	}
	if s.sa != nil {
		s.sa.ScanChunk(chunk, base, func(p, end int) {
			s.buf = append(s.buf, Match{Pattern: m.saPattern[p], End: end})
		})
	}
	for j, mach := range m.nbvas {
		p, anchored := m.nbvaIdx[j], mach.EndAnchored
		if st := s.nbvaStates[j]; st != nil {
			st.ScanChunk(chunk, base, func(end int) { fire(p, end, anchored) })
			continue
		}
		r := s.nbvaSteps[j]
		for i, b := range chunk {
			if r.Step(b) {
				for k := r.FinalsFired(); k > 0; k-- {
					fire(p, base+i, anchored)
				}
			}
		}
	}
	for j, r := range s.nfaRunners {
		p, anchored := m.nfaIdx[j], m.nfas[j].EndAnchored
		for i, b := range chunk {
			if r.Step(b) {
				for k := r.FinalsActive(); k > 0; k-- {
					fire(p, base+i, anchored)
				}
			}
		}
	}
	blocked := m.dfaBlocked()
	for j := 0; j < blocked; j += automata.BlockLanes {
		idx := m.dfaIdx[j:]
		automata.ScanBlock((*[automata.BlockLanes]*automata.DFA)(m.dfas[j:]),
			(*[automata.BlockLanes]int32)(s.dfaRows[j:]), chunk, base, func(lane, end int) {
				s.buf = append(s.buf, Match{Pattern: idx[lane], End: end})
			})
	}
	for j := blocked; j < len(m.dfas); j++ {
		p := m.dfaIdx[j]
		s.dfaRows[j] = m.dfas[j].ScanChunk(s.dfaRows[j], chunk, base, func(end int) {
			s.buf = append(s.buf, Match{Pattern: p, End: end})
		})
	}
	s.buf, s.tmp = mergeRuns(s.buf, s.tmp)
	return s.buf
}

// mergeRuns stably sorts ms by End and returns it with the spare buffer
// for the next call. ms is a concatenation of ascending runs, so this is
// a natural merge sort: each pass merges neighbouring runs pairwise from
// one buffer into the other, and a single run costs one read.
func mergeRuns(ms, tmp []Match) (sorted, spare []Match) {
	for runEnd(ms, 0) < len(ms) {
		tmp = tmp[:0]
		for lo := 0; lo < len(ms); {
			mid := runEnd(ms, lo)
			hi := runEnd(ms, mid)
			a, b := ms[lo:mid], ms[mid:hi]
			for len(a) > 0 && len(b) > 0 {
				if b[0].End < a[0].End {
					tmp, b = append(tmp, b[0]), b[1:]
				} else {
					tmp, a = append(tmp, a[0]), a[1:]
				}
			}
			tmp = append(append(tmp, a...), b...)
			lo = hi
		}
		ms, tmp = tmp, ms
	}
	return ms, tmp
}

// runEnd returns the end of the ascending run of ms starting at lo.
func runEnd(ms []Match, lo int) int {
	if lo >= len(ms) {
		return len(ms)
	}
	hi := lo + 1
	for hi < len(ms) && ms[hi-1].End <= ms[hi].End {
		hi++
	}
	return hi
}
