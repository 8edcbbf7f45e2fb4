package prefilter

import (
	"bytes"
	"time"

	"repro/internal/simdscan"
)

// span is one candidate window in global stream offsets, inclusive.
type span struct{ a, b int }

// Stream is the per-flow prefilter state: the literal scanner's DFA state,
// a short history of recent stream bytes (so a window opening before the
// current chunk can be replayed), and the window bookkeeping that decides
// when the match automaton runs versus parks. Literal occurrences split
// across chunk boundaries are found because the DFA state survives Scan
// calls; windows reaching back across a boundary are replayed from the
// history buffer. A Stream is not safe for concurrent use.
type Stream struct {
	set *Set

	state        int32 // AC DFA state (unused on other tiers)
	tstate       simdscan.TeddyState
	pos          int    // global offset of the next byte to consume
	scannedUntil int    // last global offset delivered to the automaton
	activeUntil  int    // open window extending past the last chunk, or -1
	hist         []byte // last <=window stream bytes before pos
	windows      []span // per-chunk scratch, merged and ordered

	stats Stats
}

// NewStream creates a stream at global offset 0.
func (s *Set) NewStream() *Stream {
	return &Stream{set: s, scannedUntil: -1, activeUntil: -1}
}

// Reset restores offset 0 with no pending windows or history.
func (st *Stream) Reset() {
	st.state = 0
	st.tstate = simdscan.TeddyState{}
	st.pos = 0
	st.scannedUntil = -1
	st.activeUntil = -1
	st.hist = st.hist[:0]
	st.stats = Stats{}
}

// Stats returns the cumulative counters since the last Reset.
func (st *Stream) Stats() Stats { return st.stats }

// Scan advances the stream by one chunk. It locates literal hits, merges
// them into candidate windows of radius window-1, and calls scan(base,
// data) for each maximal byte range the match automaton must consume —
// base is the global offset of data[0], and data may reference history
// bytes from before this chunk. reset is called before a range that does
// not directly extend the previously scanned one (the automaton parked
// across a gap no match can span, so clearing its state is sound).
// Ranges arrive in increasing offset order and never overlap.
func (st *Stream) Scan(chunk []byte, scan func(base int, data []byte), reset func()) {
	if len(chunk) == 0 {
		return
	}
	w := st.set.window
	base := st.pos
	end := base + len(chunk) - 1

	// Phase 1: literal scan -> merged candidate windows.
	t0 := time.Now()
	st.windows = st.windows[:0]
	if st.activeUntil >= base {
		st.windows = append(st.windows, span{base, st.activeUntil})
	}
	st.activeUntil = -1
	switch {
	case st.set.hasSingle:
		off := 0
		for {
			i := bytes.IndexByte(chunk[off:], st.set.single)
			if i < 0 {
				break
			}
			st.addHit(base+off+i, w)
			off += i + 1
		}
	case st.set.oneByte:
		for i := 0; i < len(chunk); i++ {
			if st.set.byteMask[chunk[i]] {
				st.addHit(base+i, w)
			}
		}
	case st.set.teddy != nil:
		// st.hist still holds the bytes before this chunk (it is refreshed
		// after phase 2), exactly what cross-boundary verification reads.
		st.tstate = st.set.teddy.Scan(chunk, st.hist, st.tstate, func(end int) {
			st.addHit(base+end, w)
		})
		st.stats.DirtyBlocks = st.tstate.DirtyBlocks() // both count from the last Reset
	default:
		s, next, out := st.state, st.set.next, st.set.out
		for i := 0; i < len(chunk); i++ {
			s = next[s][chunk[i]]
			if out[s] {
				st.addHit(base+i, w)
			}
		}
		st.state = s
	}
	st.stats.WindowNS += time.Since(t0).Nanoseconds()

	// Phase 2: deliver window bytes, replaying history where a window
	// opens before this chunk.
	delivered := 0
	for _, win := range st.windows {
		a, b := win.a, win.b
		if b > end {
			st.activeUntil = b
			b = end
		}
		if a <= st.scannedUntil {
			a = st.scannedUntil + 1
		}
		if a > b {
			continue
		}
		if a > st.scannedUntil+1 {
			reset()
		}
		if a < base {
			// History part: positions [base-len(hist), base-1].
			lo := a - (base - len(st.hist))
			hi := min(b, base-1) - (base - len(st.hist))
			scan(a, st.hist[lo:hi+1])
			st.stats.ScannedBytes += int64(hi - lo + 1)
		}
		if b >= base {
			ca := max(a, base)
			scan(ca, chunk[ca-base:b-base+1])
			delivered += b - ca + 1
		}
		st.scannedUntil = b
	}
	st.stats.ScannedBytes += int64(delivered)
	st.stats.SkippedBytes += int64(len(chunk) - delivered)

	// Keep the last w bytes of the stream for the next chunk's replays.
	if len(chunk) >= w {
		st.hist = append(st.hist[:0], chunk[len(chunk)-w:]...)
	} else {
		keep := w - len(chunk)
		if keep > len(st.hist) {
			keep = len(st.hist)
		}
		copy(st.hist, st.hist[len(st.hist)-keep:])
		st.hist = append(st.hist[:keep], chunk...)
	}
	st.pos += len(chunk)
}

// addHit merges the window of a literal hit ending at global offset t into
// the per-chunk window list. Hits arrive in increasing t, so only the last
// window can absorb the new one.
func (st *Stream) addHit(t, w int) {
	st.stats.LiteralHits++
	a, b := t-w+1, t+w-1
	if a < 0 {
		a = 0
	}
	if n := len(st.windows); n > 0 && a <= st.windows[n-1].b+1 {
		if b > st.windows[n-1].b {
			st.windows[n-1].b = b
		}
		return
	}
	st.windows = append(st.windows, span{a, b})
	st.stats.Windows++
}
