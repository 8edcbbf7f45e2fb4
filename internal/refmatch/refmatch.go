// Package refmatch is a from-scratch software multi-pattern regex matcher.
// It plays two roles in the reproduction:
//
//  1. Correctness oracle. The paper validates its cycle-accurate simulator
//     against Hyperscan (§5.2); our integration tests validate the RAP,
//     CAMA, CA and BVAP simulators against this package.
//  2. CPU baseline. Fig 13 compares RAP with Hyperscan on an i9-12900K;
//     we measure this matcher's real throughput on the host instead
//     (documented substitution #3 in DESIGN.md).
//
// It runs every pattern as a DFA where the DFA fits a state cap, and the
// rest as NBVA machines, the way Hyperscan-class engines run small
// patterns. It has no front-end of its own: internal/compile parses,
// rewrites and routes every pattern through the Fig 9 decision graph, and
// FromResult lowers each compiled pattern once, into a lowering kept by
// slot: a compiled NBVA machine and its kernel, or an automaton lowered
// as a DFA, as a member of the windowed group or, past the cap, as an
// NBVA machine. §3.2's LNFA mode, one STE per character for hardware
// without a crossbar, binds no software engine: a linear pattern is
// lowered from its Glushkov NFA, as an NFA-mode one is from its NFA.
//
// # The match contract
//
// The served contract is the set of (pattern, End) pairs: it equals the
// reference NFA's over the concatenated stream on every route. How many
// times a pattern reports one End is the number of reporting STEs of its
// compiled automaton active there, so it follows the route: σ{0,k} on the
// NBVA engine is one BV-STE, and one report, where the unfolded NFA has k
// finals and reports k times.
//
// # Scanning
//
// FromResult builds lanes from the lowerings, one per engine: a scan loop
// with the tables it reads. In order, they are the windowed
// group, the linear patterns with a mandatory literal set, whose union
// DFAs run only inside the candidate windows of a prefilter.Stream; the
// NBVA machines, each on the nbva chunk kernel or, when too wide for it,
// on a per-byte runner, the automata past the DFA cap among them; and the
// DFAs. The tables belong to the Matcher and are shared by all its
// sessions; a Session holds one state per lane, only what a stream
// changes. A feed runs the lanes one after the other over the whole
// chunk, and one stable sort of their matches by End restores stream
// order.
//
// DFA patterns are scanned pattern-parallel, as the fabric runs them (§3.1:
// every STE sees the input symbol in the same cycle, and only the active
// ones do work). One automata.WakeLoop reads the chunk once per 64 DFAs
// and steps only the DFAs that are awake or that a byte pair wakes; a DFA
// back in row 0 or in its rest row, such as a '.*' row, sleeps again.
//
// The order of the matches of one Feed or Scan is part of the contract:
// ascending End, and for equal End lane order, then pattern order. A
// match of an end-anchored pattern is reported by Finish when the input
// is streamed, since only then is the last byte known, and in place by
// the whole-buffer scans.
//
// # Typed errors
//
// Every failure the package returns is inspectable with errors.Is /
// errors.As:
//
//   - Compile failures are the front-end's *compile.Error values naming
//     the failing pattern index, its text and a compile.DiagCode
//     (DiagParseError, DiagCapacity); the underlying cause stays reachable
//     through the Unwrap chain.
//   - Session.ScanParallel ineligibility is a *ParallelizeError wrapping
//     the ErrNotParallelizable sentinel and carrying a stable Reason
//     token — one of ReasonDisabled, ReasonNBVAEngine, ReasonAnchored,
//     ReasonMatchesEmpty or ReasonStateCap — so callers can branch with
//     errors.Is(err, ErrNotParallelizable) and count fallbacks by reason
//     (FallbackReason extracts the token). The tokens are part of the
//     API: rapbench -exp sfa prints them verbatim.
//   - A ReasonStateCap failure additionally wraps
//     automata.ErrStateCapExceeded, the typed subset-construction
//     overflow also returned by automata.BuildDFA when a machine
//     outgrows its DFA state cap.
package refmatch

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/automata"
	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/prefilter"
	"repro/internal/regexast"
)

// Engine identifies which execution engine a pattern was compiled to.
type Engine int

const (
	// EngineShiftAnd names bit-parallel Shift-And execution, which no
	// lowering produces: a linear pattern runs as a DFA or, past the DFA
	// state cap, on the NBVA engine.
	EngineShiftAnd Engine = iota
	// EngineNBVA executes patterns with large bounded repetitions.
	EngineNBVA
	// EngineNFA names bitset NFA simulation, which no lowering produces:
	// an NFA runs as a DFA or, past the DFA state cap, on the NBVA engine.
	EngineNFA
	// EngineDFA executes small general patterns with a materialized DFA
	// (one table lookup per byte), the Hyperscan-style fast path.
	EngineDFA
)

func (e Engine) String() string {
	switch e {
	case EngineShiftAnd:
		return "shift-and"
	case EngineNBVA:
		return "nbva"
	case EngineDFA:
		return "dfa"
	default:
		return "nfa"
	}
}

// Options tunes compilation: the front-end options (Fig 9 routes,
// thresholds, worker pool) plus the knobs of the software lowering.
type Options struct {
	// Options are handed to internal/compile, with one default of their
	// own: a zero MaxNFAStates means automata.DefaultMaxStates, because a
	// software NFA is not bound by the §3.3 per-array capacity.
	compile.Options
	// DFAStateCap bounds the materialized DFAs: a pattern whose DFA
	// (automata.BuildDFA of its automaton alone) exceeds it runs on the
	// NBVA engine as a machine without bit vectors, and the windowed group
	// packs its union DFAs within it, so every member fits a union of one.
	// 0 means 2048; negative disables the DFA path.
	DFAStateCap int
	// DisablePrefilter runs every linear pattern on its always-on DFA,
	// bypassing the mandatory-literal prefilter and the windowed group.
	// The differential tests compare the two paths for identical match
	// sets.
	DisablePrefilter bool
	// SFAStateCap bounds the union subset construction backing
	// Session.ScanParallel (the Simultaneous-FA data-parallel scan): the
	// DFA-engine patterns of the set are merged into one streaming
	// DFA whose state count must stay under the cap, or parallel scans
	// fall back to the serial path with ErrNotParallelizable. 0 means
	// 4096; negative disables parallel scanning for the matcher.
	SFAStateCap int
}

func (o *Options) setDefaults() {
	if o.MaxNFAStates == 0 {
		o.MaxNFAStates = automata.DefaultMaxStates
	}
	if o.DFAStateCap == 0 {
		o.DFAStateCap = 2048
	}
	if o.SFAStateCap == 0 {
		o.SFAStateCap = 4096
	}
}

// FrontEnd returns the options Compile runs internal/compile with, for
// callers that keep the compile.Result and lower it with FromResult.
func (o Options) FrontEnd() compile.Options {
	o.setDefaults()
	return o.Options
}

// Canonical returns a stable serialization of the options with defaults
// applied: two Options values that compile identically produce the same
// canonical form. Program caches key on it together with the patterns.
func (o Options) Canonical() string {
	o.setDefaults()
	pf := 1
	if o.DisablePrefilter {
		pf = 0
	}
	return fmt.Sprintf("refmatch/v4|%s|dfa=%d|pf=%d|sfa=%d",
		o.Options.Canonical(), o.DFAStateCap, pf, o.SFAStateCap)
}

// Match reports a pattern match ending at byte offset End of the scanned
// input (0-based, inclusive).
type Match struct {
	Pattern int // index into the compiled pattern list
	End     int
}

// Matcher scans inputs against a compiled set of patterns.
type Matcher struct {
	n int // patterns
	// lanes are the scan loops in the order of the package comment, in
	// kinds (apart, so that no Matcher points into itself); a lane with no
	// pattern is left out.
	lanes []lane
	kinds *laneSet
	// lowered holds each pattern's lowering, by slot.
	lowered []*lowering
	// lanesReused counts the lanes Relower took whole from an earlier
	// generation.
	lanesReused int

	// opts are the (defaulted) compile options; ScanParallel reads the
	// SFA cap from them when building the parallel plan.
	opts Options

	// The parallel-scan plan (SFA union machine + overlap) is built once,
	// on first use, and shared by every session of the matcher.
	parOnce sync.Once
	par     *parallelPlan
	parErr  error

	// The per-pattern report — each pattern's engine and prefilter
	// verdict — is built on first use from the lanes.
	reportOnce sync.Once
	engines    []Engine
	verdicts   []prefilter.Verdict
}

// Compile builds a matcher for the given patterns: the internal/compile
// front-end followed by FromResult. The zero Options value means
// defaults. A canceled ctx abandons the compile and returns ctx's error;
// a pattern no open route can compile fails the whole set with its
// *compile.Error.
func Compile(ctx context.Context, patterns []string, opts Options) (*Matcher, error) {
	res, err := compile.CompileContext(ctx, patterns, opts.FrontEnd())
	if err != nil {
		return nil, err
	}
	return FromResult(res, opts)
}

// lowering is one pattern lowered onto its software engine: a compiled
// NBVA machine and its kernel, or an automaton — c.NFA, or the Glushkov
// NFA of a linear pattern's AST — lowered as a DFA, as a member of the
// windowed group, or, past the DFA state cap, as an NBVA machine without
// bit vectors (a cap miss). It is read-only, and a later generation takes
// it by slot.
type lowering struct {
	ast     *regexast.Regex // a linear pattern's, nil for the others
	nfa     *automata.NFA   // the automaton, nil for a compiled NBVA machine
	dfa     *automata.DFA
	machine *nbva.Machine
	kernel  *nbva.Kernel
	// A linear pattern's mandatory literals, nil unless it is windowed, its
	// prefilter verdict and its longest match, the longest of its sequences.
	lits    [][]byte
	verdict prefilter.Verdict
	window  int
	// The options an automaton was lowered under.
	cap      int
	disabled bool // Options.DisablePrefilter
}

// lower lowers c. A linear pattern with a mandatory literal set is
// windowed, one without, or under DisablePrefilter, runs on its DFA, as
// an NFA does, and an automaton whose own DFA outgrows opts.DFAStateCap
// is a cap miss.
func lower(c *compile.Compiled, opts Options) (*lowering, error) {
	lw := &lowering{cap: opts.DFAStateCap, disabled: opts.DisablePrefilter}
	switch {
	case c.NBVA != nil:
		lw.machine, lw.kernel = c.NBVA, nbva.NewKernel(c.NBVA)
		return lw, nil
	case c.NFA != nil:
		lw.nfa = c.NFA
	default:
		nfa, err := automata.Glushkov(c.AST, opts.MaxNFAStates)
		if err != nil {
			return nil, fmt.Errorf("refmatch: pattern %d: %w", c.Index, err)
		}
		lw.ast, lw.nfa, lw.verdict = c.AST, nfa, prefilter.Verdict{Reason: "prefilter disabled by options"}
		for _, s := range c.Seqs {
			lw.window = max(lw.window, len(s.Classes))
		}
		if !opts.DisablePrefilter {
			lw.lits, lw.verdict = prefilter.Analyze(c.AST.Root)
		}
	}
	if opts.DFAStateCap > 0 {
		// A windowed pattern's own DFA is dropped: it only shows that the
		// pattern fits a union of the group.
		if dfa, err := automata.BuildDFA(opts.DFAStateCap, lw.nfa); err == nil {
			if lw.lits == nil {
				lw.dfa = dfa
			}
			return lw, nil
		}
	}
	lw.lits, lw.machine = nil, nbva.FromNFA(lw.nfa)
	lw.kernel = nbva.NewKernel(lw.machine)
	return lw, nil
}

// of reports whether lw was made from c's machine: c.NBVA, c.NFA or, for
// a linear pattern, c.AST.
func (lw *lowering) of(c *compile.Compiled) bool {
	switch {
	case c.NBVA != nil:
		return lw.machine == c.NBVA
	case c.NFA != nil:
		return lw.nfa == c.NFA
	}
	return lw.ast == c.AST
}

// laneSet is a matcher's lanes by kind, each empty when it has none.
type laneSet struct {
	win windowLane
	nb  nbvaLane
	dl  dfaLane
}

// prefix builds one of a lane's slices as a view of the same slice of an
// earlier generation's lane, old, for as long as every value added is the
// one old holds there, and copies only once one is not.
type prefix[T comparable] struct {
	old, s []T // s: the values, once copied
	n      int
}

func (p *prefix[T]) add(v T) {
	if p.s == nil && (p.n >= len(p.old) || p.old[p.n] != v) {
		p.s = append(make([]T, 0, p.n+1), p.old[:p.n]...)
	}
	if p.s != nil {
		p.s = append(p.s, v)
	}
	p.n++
}

func (p *prefix[T]) slice() []T {
	if p.s != nil || p.old == nil {
		return p.s
	}
	return p.old[:p.n:p.n]
}

// same reports whether a and b are one slice.
func same[T any](a, b []T) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }

// FromResult lowers a compile.Result onto the software engines: LNFA
// patterns from the Glushkov NFA of their AST (behind the literal
// prefilter when the AST has a mandatory literal set), NBVA machines as
// compiled, and NFAs as a materialized DFA or, past its cap, as NBVA
// machines without bit vectors. The matcher is all-or-nothing: the first
// per-pattern failure of res, in pattern order, is returned as is.
func FromResult(res *compile.Result, opts Options) (*Matcher, error) {
	return Relower(nil, nil, res, opts)
}

// Relower is FromResult with prev, the Matcher of an earlier generation of
// the ruleset, as its cache, and older, the Matcher prev replaced, behind
// it. A pattern res took from the Result either was lowered from
// (compile.Recompile shares its machine and records its slot in From or
// FromOlder) takes that matcher's lowering at that slot, by pointer, since
// no scan writes to one, when it was made from the same c.NBVA, c.NFA or
// c.AST: an NBVA kernel under any options, an automaton's DFA table,
// windowed membership or cap-miss machine under the same DFAStateCap and
// DisablePrefilter (so no failed subset construction runs again). Each
// lane's slices stay views of the same lane of an earlier generation
// while they hold the same members, so a lane the edit left as it was
// allocates nothing, and a windowed group whose members — lowerings, by
// pointer, in order — are those of prev's or older's takes that group
// whole: its prefilter and its union DFAs, built or not. Only a group
// whose membership changed builds its literal union again, and its union
// DFAs on first use. The Matcher equals FromResult(res, opts) in engines,
// kernels, verdicts and match order. A nil prev and older is FromResult.
func Relower(prev, older *Matcher, res *compile.Result, opts Options) (*Matcher, error) {
	if len(res.Errors) > 0 {
		return nil, res.Errors[0]
	}
	opts.setDefaults()
	m := &Matcher{n: len(res.Regexes), opts: opts, kinds: &laneSet{}}
	// The lanes are built as views of those of older when the edit
	// restored patterns from it, else of prev's.
	old, base := &laneSet{}, prev
	if res.Restored > 0 {
		base = older
	}
	lowered := prefix[*lowering]{}
	if base != nil {
		old, lowered.old = base.kinds, base.lowered
	}
	var oldMembers []*lowering
	if old.win.g != nil {
		oldMembers = old.win.g.members
	}
	winMembers, winPatterns := prefix[*lowering]{old: oldMembers}, prefix[int]{old: old.win.patterns}
	nbMachines, nbKernels, nbPatterns := prefix[*nbva.Machine]{old: old.nb.machines}, prefix[*nbva.Kernel]{old: old.nb.kernels}, prefix[int]{old: old.nb.patterns}
	dlDFAs, dlPatterns := prefix[*automata.DFA]{old: old.dl.dfas}, prefix[int]{old: old.dl.patterns}
	for i := range res.Regexes {
		c := &res.Regexes[i]
		// The lowering of the slot i was taken from, kept if it is of this
		// machine and, for an automaton, under these options.
		var lw *lowering
		if res.From != nil && res.From[i] >= 0 && prev != nil {
			lw = prev.lowered[res.From[i]]
		} else if res.FromOlder != nil && res.FromOlder[i] >= 0 && older != nil {
			lw = older.lowered[res.FromOlder[i]]
		}
		if lw == nil || !lw.of(c) || c.NBVA == nil && (lw.cap != opts.DFAStateCap || lw.disabled != opts.DisablePrefilter) {
			var err error
			if lw, err = lower(c, opts); err != nil {
				return nil, err
			}
		}
		switch {
		case lw.machine != nil:
			nbMachines.add(lw.machine)
			nbKernels.add(lw.kernel)
			nbPatterns.add(i)
		case lw.dfa != nil:
			dlDFAs.add(lw.dfa)
			dlPatterns.add(i)
		default:
			winMembers.add(lw)
			winPatterns.add(i)
		}
		lowered.add(lw)
	}
	m.lowered = lowered.slice()
	k := m.kinds
	k.win.patterns = winPatterns.slice()
	if members := winMembers.slice(); len(members) > 0 && same(oldMembers, members) {
		k.win.g = old.win.g
		m.lanesReused++
	} else if len(members) > 0 {
		g, err := newWindowGroup(members, opts.DFAStateCap)
		if err != nil {
			return nil, err
		}
		k.win.g = g
	}
	k.nb = nbvaLane{machines: nbMachines.slice(), kernels: nbKernels.slice(), patterns: nbPatterns.slice()}
	for _, kernel := range k.nb.kernels {
		if kernel != nil {
			k.nb.words += kernel.Words()
		}
	}
	if k.nb.starts = old.nb.starts; !same(old.nb.kernels, k.nb.kernels) {
		k.nb.starts = nbva.NewStarts(k.nb.kernels)
	}
	k.dl = dfaLane{dfas: dlDFAs.slice(), patterns: dlPatterns.slice()}
	if k.dl.loop = old.dl.loop; !same(old.dl.dfas, k.dl.dfas) {
		k.dl.loop = automata.NewWakeLoop(k.dl.dfas)
	}
	for _, l := range []lane{&k.win, &k.nb, &k.dl} {
		if len(l.pats()) > 0 {
			m.lanes = append(m.lanes, l)
		}
	}
	return m, nil
}

// LanesReused returns how many scan lanes Relower took whole from an
// earlier generation instead of building them.
func (m *Matcher) LanesReused() int { return m.lanesReused }

// Engines returns the engine chosen for each pattern.
func (m *Matcher) Engines() []Engine {
	m.report()
	return m.engines
}

// PrefilterVerdicts returns the per-pattern prefilter decision: whether
// the pattern runs behind the literal prefilter, with its literal set or
// the fallback reason.
func (m *Matcher) PrefilterVerdicts() []prefilter.Verdict {
	m.report()
	return m.verdicts
}

// report builds the engines and verdicts once: a pattern's engine is its
// lane's, the verdict of a linear pattern off the NBVA engine its
// lowering's, and the tier, a property of the compiled literal union
// rather than of one pattern, is added to the prefiltered verdicts.
func (m *Matcher) report() {
	m.reportOnce.Do(func() {
		m.engines, m.verdicts = make([]Engine, m.n), make([]prefilter.Verdict, m.n)
		tier := m.PrefilterTier()
		for _, l := range m.lanes {
			for _, p := range l.pats() {
				m.engines[p], m.verdicts[p] = l.engine(), prefilter.Verdict{Reason: "engine " + l.engine().String() + " is always-on"}
				if lw := m.lowered[p]; lw.ast != nil && lw.machine == nil {
					if m.verdicts[p] = lw.verdict; lw.verdict.Prefilterable {
						m.verdicts[p].Tier = tier
					}
				}
			}
		}
	})
}

// PrefilterTier returns the candidate-scanner tier the literal union
// compiled to ("memchr", "bytetable", "teddy" or "ac"), or the empty
// string when no pattern is prefiltered.
func (m *Matcher) PrefilterTier() string {
	if g := m.kinds.win.g; g != nil {
		return g.pf.Tier().String()
	}
	return ""
}

// PrefilterKernel names the candidate scan loop of the literal union
// (prefilter.Set.Kernel), empty when no pattern is prefiltered.
func (m *Matcher) PrefilterKernel() string {
	if g := m.kinds.win.g; g != nil {
		return g.pf.Kernel()
	}
	return ""
}

// Kernels names, per pattern, the software loop that scans it:
// "dfa-union behind" the candidate scanner of the literal union for a
// windowed pattern ("dfa-union behind teddy fp3 avx2"), "word64" or — for a machine with more than
// nbva.MaxKernelStates control states — "step" for an NBVA pattern,
// "word64 memchr" when an idle machine skips to its one start byte with
// bytes.IndexByte, followed by its control-state and bit-vector sizes (an
// automaton past the DFA cap is one with 0 BV bits), and "dfa-table" for
// any other DFA pattern, linear, anchored and nullable ones included.
func (m *Matcher) Kernels() []string {
	out := make([]string, m.n)
	for _, l := range m.lanes {
		for j, p := range l.pats() {
			out[p] = l.kernel(j)
		}
	}
	return out
}

// NumPatterns returns the number of compiled patterns.
func (m *Matcher) NumPatterns() int { return m.n }

// Scan runs every pattern over input and returns all matches in stream
// order (see the package comment). Nullable patterns report only at offsets where their
// automaton fires, matching the AP streaming semantics.
//
// Scan keeps all per-scan state in a private Session, so a compiled
// Matcher may be shared by any number of concurrent Scan/Count calls and
// open Sessions.
func (m *Matcher) Scan(input []byte) []Match {
	return m.NewSession().feed(input, true)
}

// Count returns the total number of matches, used for throughput
// measurement.
func (m *Matcher) Count(input []byte) int {
	return len(m.NewSession().feed(input, true))
}
