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
// Like Hyperscan, it is built around bit-parallel Shift-And for the linear
// patterns (the majority in several benchmarks) and falls back to NBVA /
// NFA bitset simulation for the rest. It has no front-end of its own:
// internal/compile parses, rewrites and routes every pattern through the
// Fig 9 decision graph, and FromResult lowers each compiled mode onto its
// software engine.
//
// # Scanning
//
// A Session scans engine-major: every engine runs its own loop over the
// whole chunk — the Shift-And word kernels (the prefiltered machine only
// inside candidate windows), the nbva chunk kernel per NBVA pattern, the
// per-byte runners for NFA patterns and for NBVA machines too wide for
// the kernel, and the DFA table loops — and one stable merge of their
// matches by End restores stream order. The tables an engine scans with
// belong to the Matcher and are shared by all its sessions; a session
// holds only the state a stream changes.
//
// DFA patterns are scanned pattern-parallel, as the fabric runs them (§3:
// every STE sees the input symbol in the same cycle). One DFA's table
// walk is a chain of dependent loads that leaves the core waiting, so
// automata.ScanBlock steps four DFAs per input byte in one loop, four
// independent chains, and the DFA-routed patterns go through it in
// blocks of four consecutive patterns in pattern order; the last one to
// three run the single-lane loop. A block is only a range of the
// Matcher's per-pattern tables, and a stream carries one row offset per
// DFA across chunks.
//
// The order of the matches of one Feed or Scan is part of the contract:
// ascending End, and for equal End the prefiltered Shift-And patterns,
// the always-on Shift-And patterns, then the NBVA, NFA and DFA patterns,
// each group in pattern order. Blocks keep it: a block reports a byte's
// matches lane by lane before the next byte's, which is an ascending run
// whose ties are already in pattern order, blocks and the tail follow
// each other in pattern order, and the merge is stable. A match of an
// end-anchored pattern is reported by Finish when the input is streamed,
// since only then is the last byte known, and in place by the
// whole-buffer scans.
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
	"repro/internal/shiftand"
)

// Engine identifies which execution engine a pattern was compiled to.
type Engine int

const (
	// EngineShiftAnd executes linear patterns bit-parallel.
	EngineShiftAnd Engine = iota
	// EngineNBVA executes patterns with large bounded repetitions.
	EngineNBVA
	// EngineNFA executes general patterns by bitset NFA simulation.
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
	// DFAStateCap bounds the materialized-DFA fast path for general
	// patterns; patterns whose subset construction exceeds it run as
	// NFAs. 0 means 2048; negative disables the DFA path.
	DFAStateCap int
	// DisablePrefilter forces every Shift-And pattern onto the always-on
	// scan path, bypassing the mandatory-literal prefilter. The
	// differential tests compare the two paths for identical match sets.
	DisablePrefilter bool
	// SFAStateCap bounds the union subset construction backing
	// Session.ScanParallel (the Simultaneous-FA data-parallel scan): the
	// DFA/NFA-engine patterns of the set are merged into one streaming
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
	engines []Engine

	// Always-on Shift-And machine: linear patterns without a usable
	// mandatory-literal set step every input byte.
	sa        *shiftand.Machine // packed linear patterns, nil if none
	saPattern []int             // shift-and pattern index -> global index

	// Prefiltered Shift-And machine: linear patterns whose mandatory
	// literals gate the automaton to candidate windows around hits.
	saFast        *shiftand.Machine
	saFastPattern []int
	pf            *prefilter.Set

	verdicts []prefilter.Verdict // per global pattern

	nbvas   []*nbva.Machine
	nbvaIdx []int
	// nbvaKernels[j] is the word-at-a-time scan program of nbvas[j], shared
	// by every session; nil when the machine has more control states than
	// the kernel takes and sessions step an nbva.Runner instead.
	nbvaKernels []*nbva.Kernel

	nfas   []*automata.NFA
	nfaIdx []int

	// The DFA-routed patterns, in pattern order. Sessions scan the first
	// dfaBlocked of them automata.BlockLanes to a loop; a block is an index
	// range, so each table stays its pattern's own, shared by Relower.
	dfas    []*automata.DFA
	dfaIdx  []int
	dfaNFAs []*automata.NFA // Glushkov NFA behind each DFA, for the SFA union

	// saMaxLen is the longest packed Shift-And sequence, which bounds how
	// far back a Shift-And match can reach — the per-chunk overlap of the
	// parallel scan path.
	saMaxLen int

	// opts are the (defaulted) compile options; ScanParallel reads the
	// SFA cap from them when building the parallel plan.
	opts Options

	// The parallel-scan plan (SFA union machine + overlap) is built once,
	// on first use, and shared by every session of the matcher.
	parOnce sync.Once
	par     *parallelPlan
	parErr  error
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

// lowered holds what FromResult derives from one pattern's machine and
// nothing else: the DFA table of an NFA (nil: it steps as an NFA, because
// the streaming DFA does not apply or outgrew DFAStateCap) and the scan
// kernel of an NBVA machine (nil: too wide, sessions step a Runner). A
// Matcher's own tables, keyed by the machine they were built from, are the
// cache its successor lowers against. The zero value caches nothing.
type lowered struct {
	dfas    map[*automata.NFA]*automata.DFA
	kernels map[*nbva.Machine]*nbva.Kernel
}

// lowered indexes the per-pattern tables of m for a successor lowered
// under opts (defaulted). A DFA verdict stands only under the same cap.
func (m *Matcher) lowered(opts Options) lowered {
	var l lowered
	if m == nil {
		return l
	}
	if m.opts.DFAStateCap == opts.DFAStateCap {
		l.dfas = make(map[*automata.NFA]*automata.DFA, len(m.dfas)+len(m.nfas))
		for j, nfa := range m.dfaNFAs {
			l.dfas[nfa] = m.dfas[j]
		}
		for _, nfa := range m.nfas {
			l.dfas[nfa] = nil
		}
	}
	l.kernels = make(map[*nbva.Machine]*nbva.Kernel, len(m.nbvas))
	for j, machine := range m.nbvas {
		l.kernels[machine] = m.nbvaKernels[j]
	}
	return l
}

// dfa returns the streaming DFA nfa scans with, nil when it steps as an
// NFA: a small table, when constructible and the pattern has no anchoring
// or empty-match subtleties.
func (l lowered) dfa(nfa *automata.NFA, cap int) *automata.DFA {
	if dfa, ok := l.dfas[nfa]; ok {
		return dfa
	}
	if cap <= 0 || nfa.StartAnchored || nfa.EndAnchored || nfa.MatchesEmpty {
		return nil
	}
	dfa, err := automata.BuildDFA(nfa, cap)
	if err != nil {
		return nil
	}
	return dfa
}

// dfaBlocked is the number of leading m.dfas scanned in whole blocks; the
// tail is scanned single-lane, since a padding lane would cost a real one.
func (m *Matcher) dfaBlocked() int {
	return len(m.dfas) &^ (automata.BlockLanes - 1)
}

func (l lowered) kernel(machine *nbva.Machine) *nbva.Kernel {
	if k, ok := l.kernels[machine]; ok {
		return k
	}
	return nbva.NewKernel(machine)
}

// FromResult lowers a compile.Result onto the software engines: LNFA
// sequences pack into the Shift-And machines (behind the literal
// prefilter when the pattern's AST has a mandatory literal set), NBVA
// machines run as compiled, and NFAs run as bitset NFAs or — when small,
// unanchored and ε-free — as a materialized DFA. The matcher is
// all-or-nothing: the first per-pattern failure of res, in pattern
// order, is returned as is.
func FromResult(res *compile.Result, opts Options) (*Matcher, error) {
	return Relower(nil, res, opts)
}

// Relower is FromResult with prev, the Matcher of an earlier generation of
// the ruleset, as its cache: a machine res shares with the Result prev was
// lowered from (compile.Recompile shares them by pointer) keeps prev's DFA
// table or NBVA kernel, also by pointer, since no scan writes to either.
// What depends on the whole set — the Shift-And packing, the prefilter
// literal union — is rebuilt, so the Matcher equals FromResult(res, opts)
// in engines, kernels, verdicts and match order. A nil prev is FromResult.
func Relower(prev *Matcher, res *compile.Result, opts Options) (*Matcher, error) {
	if len(res.Errors) > 0 {
		return nil, res.Errors[0]
	}
	opts.setDefaults()
	cache := prev.lowered(opts)
	m := &Matcher{
		engines:  make([]Engine, len(res.Regexes)),
		verdicts: make([]prefilter.Verdict, len(res.Regexes)),
		opts:     opts,
	}
	var saPats, saFastPats []shiftand.Pattern
	var pfLits [][]byte
	pfWindow := 0
	for i := range res.Regexes {
		c := &res.Regexes[i]
		switch c.Mode {
		case compile.ModeLNFA:
			m.engines[i] = EngineShiftAnd
			// Fast-path decision: a pattern with a mandatory literal set
			// joins the prefiltered machine; the rest stay always-on.
			var lits [][]byte
			if opts.DisablePrefilter {
				m.verdicts[i] = prefilter.Verdict{Reason: "prefilter disabled by options"}
			} else {
				lits, m.verdicts[i] = prefilter.Analyze(c.AST.Root)
			}
			for _, seq := range c.Seqs {
				s := shiftand.Pattern(seq.Classes)
				if len(s) > m.saMaxLen {
					m.saMaxLen = len(s)
				}
				if lits != nil {
					saFastPats = append(saFastPats, s)
					m.saFastPattern = append(m.saFastPattern, i)
					if len(s) > pfWindow {
						pfWindow = len(s)
					}
				} else {
					saPats = append(saPats, s)
					m.saPattern = append(m.saPattern, i)
				}
			}
			pfLits = append(pfLits, lits...)
		case compile.ModeNBVA:
			m.engines[i] = EngineNBVA
			m.nbvas = append(m.nbvas, c.NBVA)
			m.nbvaIdx = append(m.nbvaIdx, i)
			m.nbvaKernels = append(m.nbvaKernels, cache.kernel(c.NBVA))
		case compile.ModeNFA:
			nfa := c.NFA
			if dfa := cache.dfa(nfa, opts.DFAStateCap); dfa != nil {
				m.engines[i] = EngineDFA
				m.dfas = append(m.dfas, dfa)
				m.dfaIdx = append(m.dfaIdx, i)
				m.dfaNFAs = append(m.dfaNFAs, nfa)
				break
			}
			m.engines[i] = EngineNFA
			m.nfas = append(m.nfas, nfa)
			m.nfaIdx = append(m.nfaIdx, i)
		}
		// Non-Shift-And engines step every byte.
		if e := m.engines[i]; e != EngineShiftAnd {
			m.verdicts[i] = prefilter.Verdict{Reason: "engine " + e.String() + " is always-on"}
		}
	}
	if len(saPats) > 0 {
		sa, err := shiftand.New(saPats)
		if err != nil {
			return nil, err
		}
		m.sa = sa
	}
	if len(saFastPats) > 0 {
		sa, err := shiftand.New(saFastPats)
		if err != nil {
			return nil, err
		}
		pf, err := prefilter.NewSet(pfLits, pfWindow)
		if err != nil {
			return nil, fmt.Errorf("refmatch: prefilter: %w", err)
		}
		m.saFast = sa
		m.pf = pf
		// The tier is a property of the compiled literal union, so it is
		// only known now — backfill it onto the prefiltered verdicts.
		tier := pf.Tier().String()
		for i := range m.verdicts {
			if m.verdicts[i].Prefilterable {
				m.verdicts[i].Tier = tier
			}
		}
	}
	return m, nil
}

// Engines returns the engine chosen for each pattern.
func (m *Matcher) Engines() []Engine { return m.engines }

// PrefilterVerdicts returns the per-pattern prefilter decision: whether
// the pattern runs behind the literal prefilter, with its literal set or
// the fallback reason.
func (m *Matcher) PrefilterVerdicts() []prefilter.Verdict { return m.verdicts }

// PrefilterTier returns the candidate-scanner tier the literal union
// compiled to ("memchr", "bytetable", "teddy" or "ac"), or the empty
// string when no pattern is prefiltered.
func (m *Matcher) PrefilterTier() string {
	if m.pf == nil {
		return ""
	}
	return m.pf.Tier().String()
}

// PrefilterKernel names the candidate scan loop of the literal union
// (prefilter.Set.Kernel), empty when no pattern is prefiltered.
func (m *Matcher) PrefilterKernel() string {
	if m.pf == nil {
		return ""
	}
	return m.pf.Kernel()
}

// Kernels names, per pattern, the software loop that scans it: the
// Shift-And kernel its sequences are packed into ("shiftand64",
// "shiftand128", "shiftand-multi", and for a prefiltered pattern the
// candidate scanner it waits behind: "shiftand64 behind teddy fp3
// stride4"), "word64" or — for a machine with more than
// nbva.MaxKernelStates control states — "step" for an NBVA pattern,
// followed by its control-state and bit-vector sizes, "nfa-step", and
// for a DFA pattern "dfa-table x4" when it is one lane of a four-DFA
// block loop or "dfa-table" when it is in the single-lane tail.
func (m *Matcher) Kernels() []string {
	out := make([]string, len(m.engines))
	for _, p := range m.saPattern {
		out[p] = shiftAndKernel(m.sa)
	}
	for _, p := range m.saFastPattern {
		out[p] = shiftAndKernel(m.saFast) + " behind " + m.pf.Kernel()
	}
	for j, p := range m.nbvaIdx {
		name := "word64"
		if m.nbvaKernels[j] == nil {
			name = "step"
		}
		out[p] = fmt.Sprintf("%s (%d states, %d BV bits)", name, m.nbvas[j].NumStates(), m.nbvas[j].TotalBVBits())
	}
	for _, p := range m.nfaIdx {
		out[p] = "nfa-step"
	}
	blockLane := fmt.Sprintf("dfa-table x%d", automata.BlockLanes)
	for j, p := range m.dfaIdx {
		out[p] = "dfa-table"
		if j < m.dfaBlocked() {
			out[p] = blockLane
		}
	}
	return out
}

func shiftAndKernel(sa *shiftand.Machine) string {
	switch {
	case sa.HasKernel64():
		return "shiftand64"
	case sa.HasKernel128():
		return "shiftand128"
	default:
		return "shiftand-multi"
	}
}

// NumPatterns returns the number of compiled patterns.
func (m *Matcher) NumPatterns() int { return len(m.engines) }

// Scan runs every pattern over input and returns all matches in stream
// order: ascending end offset, and within one offset grouped by engine
// (see Session). Nullable patterns report only at offsets where their
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
