package refmatch

import (
	"cmp"
	"slices"

	"repro/internal/prefilter"
)

// Session is a resumable scan over one stream of input. It holds its own
// copy of each lane of its Matcher (see the package comment), whose
// stream state survives between Feed calls, so a stream may arrive in
// arbitrary chunks and still produce exactly the matches a whole-buffer
// Scan would — including matches whose mandatory literal straddles a
// chunk boundary. This mirrors the paper's multi-flow operation (§3.3):
// the compiled pattern set — the CAM contents — is shared read-only, and
// each flow context-switches only its active vectors.
//
// A Session is not safe for concurrent use; callers feed one chunk at a
// time. Many sessions may share one Matcher concurrently, since the
// Matcher is immutable after compilation.
type Session struct {
	m     *Matcher
	lanes []lane  // its own copy of each of m.lanes
	pos   int     // global offset of the next byte to consume
	last  bool    // the chunk being fed ends the stream
	buf   []Match // every lane's matches of one feed, reused across feeds

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
	s := &Session{m: m, lanes: make([]lane, len(m.lanes))}
	for i, l := range m.lanes {
		s.lanes[i] = l.open()
	}
	return s
}

// Pos returns the number of stream bytes consumed so far; match End
// offsets are global, i.e. relative to the start of the stream.
func (s *Session) Pos() int { return s.pos }

// PrefilterStats returns the cumulative prefilter counters of this stream
// since the last Reset (zero when no pattern is prefiltered).
func (s *Session) PrefilterStats() prefilter.Stats {
	if len(s.lanes) > 0 { // the windowed group's lane comes first
		if l, ok := s.lanes[0].(*windowLane); ok {
			return l.stream.Stats()
		}
	}
	return prefilter.Stats{}
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
	for _, l := range s.lanes {
		l.reset()
	}
	s.pos = 0
	s.endPending = nil
	s.finished = false
}

// ScanInto resets the session, scans input as one whole buffer and
// appends every match to dst, which it returns. It is Matcher.Scan on a
// caller-managed (poolable) session: no per-scan runner allocations.
func (s *Session) ScanInto(input []byte, dst []Match) []Match {
	s.Reset()
	return s.FeedInto(input, true, dst)
}

// FeedInto consumes the next chunk of the stream and appends the matches
// ending inside it to dst, which it returns. With last the chunk ends the
// stream, so end-anchored matches at its final byte are appended in place:
// a stream fed chunk by chunk this way, the last one non-empty, appends
// exactly what ScanInto appends for the whole buffer. The next feed after
// a last one must follow a Reset.
func (s *Session) FeedInto(chunk []byte, last bool, dst []Match) []Match {
	return append(dst, s.feed(chunk, last)...)
}

// feed is the scan core shared by Feed and the whole-buffer scans, which
// pass last: the chunk is known to end the stream, so end-anchored
// matches at its final byte are returned in place instead of waiting for
// Finish. The result is valid until the next feed.
func (s *Session) feed(chunk []byte, last bool) []Match {
	if s.finished {
		s.Reset()
	}
	base := s.pos
	s.pos += len(chunk)
	s.last = last
	s.buf = s.buf[:0]
	if len(chunk) > 0 {
		s.endPending = s.endPending[:0]
	}
	for _, l := range s.lanes {
		l.scan(s, chunk, base)
	}
	slices.SortStableFunc(s.buf, func(a, b Match) int { return cmp.Compare(a.End, b.End) })
	return s.buf
}

// report records one match of pattern p. An end-anchored one counts only
// at the final byte of the stream, which the chunk's last may turn out to be.
func (s *Session) report(p, end int, endAnchored bool) {
	switch lastByte := s.pos - 1; {
	case !endAnchored || (s.last && end == lastByte):
		s.buf = append(s.buf, Match{Pattern: p, End: end})
	case end == lastByte:
		s.endPending = append(s.endPending, Match{Pattern: p, End: end})
	}
}
