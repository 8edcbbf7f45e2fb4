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
// FromResult lowers the compiled patterns into lanes, one per engine: a
// scan loop with the tables it reads. In order, they are the prefiltered
// Shift-And machine, whose word kernel runs only inside the candidate
// windows of a prefilter.Stream; the always-on Shift-And machine; the
// NBVA machines, each on the nbva chunk kernel or, when too wide for it,
// on a per-byte runner; the NFAs, stepped per byte; and the DFAs. The
// tables belong to the Matcher and are shared by all its sessions; a
// Session holds one state per lane, only what a stream changes. A feed
// runs the lanes one after the other over the whole chunk, and one stable
// sort of their matches by End restores stream order.
//
// DFA patterns are scanned pattern-parallel, as the fabric runs them (§3.1:
// every STE sees the input symbol in the same cycle, and only the active
// ones do work). One automata.WakeLoop reads the chunk once per 64 DFAs
// and steps only the DFAs that are awake or that the byte wakes; a DFA
// back in its start row sleeps again.
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
	"slices"
	"sync"

	"repro/internal/automata"
	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/prefilter"
	"repro/internal/regexast"
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
	engines  []Engine
	verdicts []prefilter.Verdict // per global pattern
	// analyses holds prefilter.Analyze's answer for each Shift-And
	// pattern's AST, for a successor to take instead of asking again.
	analyses map[*regexast.Regex]analysis

	// lanes are the scan loops in the order of the package comment; a lane
	// with no pattern is left out.
	lanes []lane
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

// analysis is the prefilter analysis of one pattern: its mandatory
// literals and the verdict before the tier is known.
type analysis struct {
	lits    [][]byte
	verdict prefilter.Verdict
}

// lowered adds to dfas and kernels what m lowered each machine to, for a
// successor lowered under opts (defaulted) to reuse: the DFA table of an
// NFA (nil: it steps as an NFA, because the streaming DFA does not apply or
// outgrew DFAStateCap), kept only under the same cap, and the scan kernel
// of an NBVA machine (nil: too wide, sessions step a Runner). It returns
// the prefilter analyses of m's Shift-And patterns.
func (m *Matcher) lowered(opts Options, dfas map[*automata.NFA]*automata.DFA, kernels map[*nbva.Machine]*nbva.Kernel) map[*regexast.Regex]analysis {
	if m == nil {
		return nil
	}
	sameCap := m.opts.DFAStateCap == opts.DFAStateCap
	for _, l := range m.lanes {
		switch l := l.(type) {
		case *nbvaLane:
			for j, machine := range l.machines {
				kernels[machine] = l.kernels[j]
			}
		case *nfaLane:
			for _, nfa := range l.nfas {
				if sameCap {
					dfas[nfa] = nil
				}
			}
		case *dfaLane:
			for j, nfa := range l.nfas {
				if sameCap {
					dfas[nfa] = l.dfas[j]
				}
			}
		}
	}
	return m.analyses
}

// alwaysOn is the prefilter verdict of a pattern whose engine steps every
// byte.
var alwaysOn = [...]prefilter.Verdict{
	EngineNBVA: {Reason: "engine nbva is always-on"},
	EngineNFA:  {Reason: "engine nfa is always-on"},
	EngineDFA:  {Reason: "engine dfa is always-on"},
}

// buildDFA returns the streaming DFA nfa scans with, nil when it steps as
// an NFA: a small table, when constructible and the pattern has no
// anchoring or empty-match subtleties.
func buildDFA(nfa *automata.NFA, cap int) *automata.DFA {
	if cap <= 0 || nfa.StartAnchored || nfa.EndAnchored || nfa.MatchesEmpty {
		return nil
	}
	dfa, err := automata.BuildDFA(nfa, cap)
	if err != nil {
		return nil
	}
	return dfa
}

// FromResult lowers a compile.Result onto the software engines: LNFA
// sequences pack into the Shift-And machines (behind the literal
// prefilter when the pattern's AST has a mandatory literal set), NBVA
// machines run as compiled, and NFAs run as bitset NFAs or — when small,
// unanchored and ε-free — as a materialized DFA. The matcher is
// all-or-nothing: the first per-pattern failure of res, in pattern
// order, is returned as is.
func FromResult(res *compile.Result, opts Options) (*Matcher, error) {
	return Relower(nil, nil, res, opts)
}

// Relower is FromResult with prev, the Matcher of an earlier generation of
// the ruleset, as its cache, and older, the Matcher prev replaced, behind
// it: a machine res shares with the Result either was lowered from
// (compile.Recompile shares them by pointer) keeps that matcher's DFA table
// or NBVA kernel, also by pointer, since no scan writes to either, and a
// shared AST keeps its prefilter literals and verdict. A Shift-And lane
// whose members — sequences, by pointer, in order — are those of a lane of
// prev or older takes that lane's machine and prefilter whole, since they
// depend on nothing else; only a lane whose membership changed is packed
// and its literal union built again. The Matcher equals FromResult(res,
// opts) in engines, kernels, verdicts and match order. A nil prev and older
// is FromResult.
func Relower(prev, older *Matcher, res *compile.Result, opts Options) (*Matcher, error) {
	if len(res.Errors) > 0 {
		return nil, res.Errors[0]
	}
	opts.setDefaults()
	n := len(res.Regexes)
	dfas, kernels := make(map[*automata.NFA]*automata.DFA, n), make(map[*nbva.Machine]*nbva.Kernel, n)
	olderAnalyses := older.lowered(opts, dfas, kernels)
	analyses := prev.lowered(opts, dfas, kernels)
	m := &Matcher{
		engines:  make([]Engine, len(res.Regexes)),
		verdicts: make([]prefilter.Verdict, len(res.Regexes)),
		analyses: make(map[*regexast.Regex]analysis),
		opts:     opts,
	}
	sas := [2]*shiftAndLane{{}, {}} // prefiltered, always-on
	var pfLits [][]byte
	pfWindow := 0
	nb, nf, dl := &nbvaLane{}, &nfaLane{}, &dfaLane{}
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
				a, ok := analyses[c.AST]
				if !ok {
					a, ok = olderAnalyses[c.AST]
				}
				if !ok {
					a.lits, a.verdict = prefilter.Analyze(c.AST.Root)
				}
				m.analyses[c.AST] = a
				lits, m.verdicts[i] = a.lits, a.verdict
			}
			for j := range c.Seqs {
				k := 1
				if lits != nil {
					k, pfWindow = 0, max(pfWindow, len(c.Seqs[j].Classes))
				}
				sas[k].members = append(sas[k].members, &c.Seqs[j])
				sas[k].patterns = append(sas[k].patterns, i)
			}
			pfLits = append(pfLits, lits...)
		case compile.ModeNBVA:
			m.engines[i] = EngineNBVA
			k, ok := kernels[c.NBVA]
			if !ok {
				k = nbva.NewKernel(c.NBVA)
			}
			nb.machines = append(nb.machines, c.NBVA)
			nb.kernels = append(nb.kernels, k)
			nb.patterns = append(nb.patterns, i)
			if k != nil {
				nb.words += k.Words()
			}
		case compile.ModeNFA:
			dfa, ok := dfas[c.NFA]
			if !ok {
				dfa = buildDFA(c.NFA, opts.DFAStateCap)
			}
			if dfa != nil {
				m.engines[i] = EngineDFA
				dl.dfas = append(dl.dfas, dfa)
				dl.nfas = append(dl.nfas, c.NFA)
				dl.patterns = append(dl.patterns, i)
				break
			}
			m.engines[i] = EngineNFA
			nf.nfas = append(nf.nfas, c.NFA)
			nf.patterns = append(nf.patterns, i)
		}
		// Non-Shift-And engines step every byte.
		if e := m.engines[i]; e != EngineShiftAnd {
			m.verdicts[i] = alwaysOn[e]
		}
	}
	for k, l := range sas {
		if err := m.buildShiftAnd(l, k == 0, pfLits, pfWindow, prev, older); err != nil {
			return nil, err
		}
	}
	if pf := sas[0].pf; pf != nil {
		// The tier is a property of the compiled literal union, so it is
		// only known now — backfill it onto the prefiltered verdicts.
		tier := pf.Tier().String()
		for i := range m.verdicts {
			if m.verdicts[i].Prefilterable {
				m.verdicts[i].Tier = tier
			}
		}
	}
	dl.loop = automata.NewWakeLoop(dl.dfas)
	for _, l := range []lane{sas[0], sas[1], nb, nf, dl} {
		if len(l.pats()) > 0 {
			m.lanes = append(m.lanes, l)
		}
	}
	return m, nil
}

// buildShiftAnd gives l, a Shift-And lane with its members, its machine
// and, when prefiltered, the prefilter of the literal union lits and
// window: those of the lane of prev or older with the same members, or
// built anew.
func (m *Matcher) buildShiftAnd(l *shiftAndLane, prefiltered bool, lits [][]byte, window int, prev, older *Matcher) error {
	if len(l.members) == 0 {
		return nil
	}
	for _, gen := range []*Matcher{prev, older} {
		if gen == nil {
			continue
		}
		for _, o := range gen.lanes {
			if o, ok := o.(*shiftAndLane); ok && (o.pf != nil) == prefiltered && slices.Equal(o.members, l.members) {
				l.sa, l.pf = o.sa, o.pf
				m.lanesReused++
				return nil
			}
		}
	}
	if prefiltered {
		pf, err := prefilter.NewSet(lits, window)
		if err != nil {
			return fmt.Errorf("refmatch: prefilter: %w", err)
		}
		l.pf = pf
	}
	seqs := make([]shiftand.Pattern, len(l.members))
	for j, s := range l.members {
		seqs[j] = s.Classes
	}
	var err error
	l.sa, err = shiftand.New(seqs)
	return err
}

// LanesReused returns how many scan lanes Relower took whole from an
// earlier generation instead of building them.
func (m *Matcher) LanesReused() int { return m.lanesReused }

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
	if l := prefiltered(m.lanes); l != nil {
		return l.pf.Tier().String()
	}
	return ""
}

// PrefilterKernel names the candidate scan loop of the literal union
// (prefilter.Set.Kernel), empty when no pattern is prefiltered.
func (m *Matcher) PrefilterKernel() string {
	if l := prefiltered(m.lanes); l != nil {
		return l.pf.Kernel()
	}
	return ""
}

// Kernels names, per pattern, the software loop that scans it: the
// Shift-And kernel its sequences are packed into ("shiftand64",
// "shiftand128", "shiftand-multi", and for a prefiltered pattern the
// candidate scanner it waits behind: "shiftand64 behind teddy fp3
// stride4"), "word64" or — for a machine with more than
// nbva.MaxKernelStates control states — "step" for an NBVA pattern,
// followed by its control-state and bit-vector sizes, "nfa-step", and
// "dfa-table" for a DFA pattern.
func (m *Matcher) Kernels() []string {
	out := make([]string, len(m.engines))
	for _, l := range m.lanes {
		for j, p := range l.pats() {
			out[p] = l.kernel(j)
		}
	}
	return out
}

// NumPatterns returns the number of compiled patterns.
func (m *Matcher) NumPatterns() int { return len(m.engines) }

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
