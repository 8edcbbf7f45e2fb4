package refmatch

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automata"
	"repro/internal/sfa"
)

// parallelPlan is everything ScanParallel needs that can be computed once
// per Matcher: the Simultaneous-FA union machine covering the DFA lane's
// patterns, and the chunk overlap that makes per-chunk rescans of the
// windowed group's unions exact. It is immutable and shared by all
// sessions.
type parallelPlan struct {
	// sfa is the union streaming DFA over every pattern of the DFA lane,
	// nil when it has none; pidx maps its members to patterns.
	sfa  *automata.DFA
	pidx []int
	// overlap is how many bytes before its chunk each worker rescans for
	// the windowed group: a linear pattern's match of length L looks only
	// at the last L bytes, so its longest match less one byte of context
	// reproduces every serial match ending inside the chunk from state 0.
	overlap int
}

// plan returns the matcher's parallel-scan plan, building it on first
// use. A nil error means ScanParallel is byte-exact for this pattern
// set; otherwise the error is a *ParallelizeError naming why not.
func (m *Matcher) plan() (*parallelPlan, error) {
	m.parOnce.Do(func() { m.par, m.parErr = m.buildPlan() })
	return m.par, m.parErr
}

// Parallelizable reports whether Session.ScanParallel can run on this
// pattern set, with the typed ineligibility (*ParallelizeError) when
// not. It forces the lazy plan build.
func (m *Matcher) Parallelizable() error {
	_, err := m.plan()
	return err
}

func (m *Matcher) buildPlan() (*parallelPlan, error) {
	if m.opts.SFAStateCap < 0 {
		return nil, &ParallelizeError{Pattern: -1, Reason: ReasonDisabled}
	}
	plan := &parallelPlan{}
	var nfas []*automata.NFA
	for _, l := range m.lanes {
		switch l := l.(type) {
		case *windowLane:
			for _, lw := range l.g.members {
				plan.overlap = max(plan.overlap, lw.window-1)
			}
		case *nbvaLane:
			// NBVA counter state has no composable chunk function here; one
			// such pattern makes the whole set serial (the matcher is
			// all-or-nothing, like compilation).
			return nil, &ParallelizeError{Pattern: l.patterns[0], Reason: ReasonNBVAEngine}
		case *dfaLane:
			for _, p := range l.patterns {
				nfa := m.lowered[p].nfa
				if nfa.StartAnchored || nfa.EndAnchored {
					return nil, &ParallelizeError{Pattern: p, Reason: ReasonAnchored}
				}
				if nfa.MatchesEmpty {
					return nil, &ParallelizeError{Pattern: p, Reason: ReasonMatchesEmpty}
				}
				nfas = append(nfas, nfa)
			}
			plan.pidx = append(plan.pidx, l.patterns...)
		}
	}
	if len(nfas) > 0 {
		mach, err := automata.BuildDFA(m.opts.SFAStateCap, nfas...)
		if err != nil {
			return nil, &ParallelizeError{Pattern: -1, Reason: ReasonStateCap, Err: err}
		}
		plan.sfa = mach
	}
	return plan, nil
}

// ParallelStats describes the last ScanParallel call on a session. The
// phase-1/join/phase-2/merge breakdown is the critical path of the
// parallel scan: with W idle cores the wall time approaches
// Phase1MaxNS + JoinNS + Phase2MaxNS + MergeNS, which the benchmark
// compares against the serial scan to model speedup independently of
// how many cores the host actually has.
type ParallelStats struct {
	Bytes   int // input length
	Chunks  int // number of partitions scanned
	Workers int // worker-pool bound actually used

	// SFAStates is the union machine's state count (0 for a set with no
	// pattern on the DFA lane).
	SFAStates int
	// ReplayBytes is the total prefix length replayed in phase 2 — the
	// bytes scanned twice because their chunk's trajectories had not yet
	// converged.
	ReplayBytes int

	Phase1MaxNS int64 // slowest simultaneous chunk scan
	JoinNS      int64 // serial left-to-right map join
	Phase2MaxNS int64 // slowest prefix replay + per-chunk sort
	MergeNS     int64 // final concatenation
}

// CriticalPathNS returns the modeled lower bound on parallel wall time.
func (st ParallelStats) CriticalPathNS() int64 {
	return st.Phase1MaxNS + st.JoinNS + st.Phase2MaxNS + st.MergeNS
}

// defaultMinChunk keeps partitions large enough that the per-chunk costs
// (map materialization, convergence prefix, overlap rescan) stay small
// against the chunk scan itself.
const defaultMinChunk = 64 << 10

// parChunk is the per-partition state of one parallel scan.
type parChunk struct {
	start, end int
	matches    []Match
	fmap       *sfa.StateMap
	conv       int   // prefix length to replay once the entry is known
	exit       int32 // chunk 0 only: serial exit state
	phase1NS   int64
	phase2NS   int64
}

// ScanParallel scans buf as one whole stream using up to workers
// goroutines and returns every match, sorted by (End, Pattern). The
// match set is byte-exact versus a serial Scan of the same buffer.
//
// The buffer is partitioned once; each worker runs the Simultaneous-FA
// machine over its chunk (chunk 0, whose entry state is known, runs the
// plain serial scan) and rescans the windowed group's union DFAs with a
// small overlap. The per-chunk state-mapping functions are then joined left to
// right — a few table lookups — and each chunk replays only the prefix
// before its convergence offset to recover entry-dependent reports.
//
// workers <= 0 means GOMAXPROCS. If the pattern set is not
// parallelizable (NBVA engine, anchored or nullable patterns, SFA state
// cap exceeded, or a negative cap), it returns a *ParallelizeError
// wrapping ErrNotParallelizable and scans nothing: the caller falls back
// to the serial path. The session's engine state is not consumed — a
// parallel scan is stateless with respect to the session's stream.
func (s *Session) ScanParallel(ctx context.Context, buf []byte, workers int) ([]Match, error) {
	return s.scanParallel(ctx, buf, workers, defaultMinChunk)
}

func (s *Session) scanParallel(ctx context.Context, buf []byte, workers, minChunk int) ([]Match, error) {
	plan, err := s.m.plan()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if minChunk < 1 {
		minChunk = 1
	}
	nChunks := workers
	if maxChunks := (len(buf) + minChunk - 1) / minChunk; nChunks > maxChunks {
		nChunks = maxChunks
	}
	if nChunks < 1 {
		nChunks = 1
	}
	chunks := make([]parChunk, nChunks)
	for i := range chunks {
		chunks[i].start = i * len(buf) / nChunks
		chunks[i].end = (i + 1) * len(buf) / nChunks
	}

	m := s.m
	runPhase := func(phase func(c *parChunk, i int)) {
		n := workers
		if n > nChunks {
			n = nChunks
		}
		if n <= 1 {
			for i := range chunks {
				if ctx.Err() != nil {
					return
				}
				phase(&chunks[i], i)
			}
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= nChunks {
						return
					}
					phase(&chunks[i], i)
				}
			}()
		}
		wg.Wait()
	}

	// Phase 1: independent chunk scans.
	win := &m.kinds.win
	runPhase(func(c *parChunk, i int) {
		t0 := time.Now()
		data := buf[c.start:c.end]
		emit := func(j, end int) { c.matches = append(c.matches, Match{Pattern: plan.pidx[j], End: end}) }
		if plan.sfa != nil {
			if i == 0 {
				c.exit = plan.sfa.ScanFrom(0, data, c.start, emit)
			} else {
				c.fmap, c.conv = sfa.MapChunk(plan.sfa, data, c.start, emit)
			}
		}
		if win.g != nil {
			// The windowed unions run always-on here; the literal prefilter
			// is a pure optimization of the serial streaming path and
			// gating it per chunk would cost more than it saves.
			lo := max(c.start-plan.overlap, 0)
			for k, u := range win.g.dfas() {
				first := win.g.first[k]
				u.ScanFrom(0, buf[lo:c.end], lo, func(j, end int) {
					if end >= c.start {
						c.matches = append(c.matches, Match{Pattern: win.patterns[first+j], End: end})
					}
				})
			}
		}
		c.phase1NS = time.Since(t0).Nanoseconds()
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Join: recover each chunk's true entry state with one table lookup
	// per boundary. This is the only serial step.
	entry := make([]int32, nChunks)
	var joinNS int64
	if plan.sfa != nil && nChunks > 1 {
		t0 := time.Now()
		e := chunks[0].exit
		for i := 1; i < nChunks; i++ {
			entry[i] = e
			e = chunks[i].fmap.At(e)
		}
		joinNS = time.Since(t0).Nanoseconds()
	}

	// Phase 2: replay each chunk's pre-convergence prefix from its true
	// entry state, then order the chunk's matches.
	runPhase(func(c *parChunk, i int) {
		t0 := time.Now()
		if plan.sfa != nil && i > 0 && c.conv > 0 {
			plan.sfa.ScanFrom(entry[i], buf[c.start:c.start+c.conv], c.start, func(j, end int) {
				c.matches = append(c.matches, Match{Pattern: plan.pidx[j], End: end})
			})
		}
		sort.Slice(c.matches, func(a, b int) bool {
			if c.matches[a].End != c.matches[b].End {
				return c.matches[a].End < c.matches[b].End
			}
			return c.matches[a].Pattern < c.matches[b].Pattern
		})
		c.phase2NS = time.Since(t0).Nanoseconds()
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge: chunks own disjoint End ranges, so concatenation is ordered.
	t0 := time.Now()
	total := 0
	for i := range chunks {
		total += len(chunks[i].matches)
	}
	out := make([]Match, 0, total)
	for i := range chunks {
		out = append(out, chunks[i].matches...)
	}
	mergeNS := time.Since(t0).Nanoseconds()

	st := ParallelStats{
		Bytes:   len(buf),
		Chunks:  nChunks,
		Workers: workers,
		JoinNS:  joinNS,
		MergeNS: mergeNS,
	}
	if plan.sfa != nil {
		st.SFAStates = plan.sfa.NumStates()
	}
	for i := range chunks {
		c := &chunks[i]
		if i > 0 {
			st.ReplayBytes += c.conv
		}
		if c.phase1NS > st.Phase1MaxNS {
			st.Phase1MaxNS = c.phase1NS
		}
		if c.phase2NS > st.Phase2MaxNS {
			st.Phase2MaxNS = c.phase2NS
		}
	}
	s.parStats = st
	return out, nil
}

// ParallelStats returns the breakdown of the session's most recent
// ScanParallel call (the zero value before any).
func (s *Session) ParallelStats() ParallelStats { return s.parStats }
