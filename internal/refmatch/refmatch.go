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
// patterns (the majority in several benchmarks), and runs the rest as
// DFAs or NBVA machines. It has no front-end of its own:
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
// on a per-byte runner, NFAs past the DFA cap among them; and the DFAs.
// The tables belong to the Matcher and are shared by all its sessions; a
// Session holds one state per lane, only what a stream changes. A feed
// runs the lanes one after the other over the whole chunk, and one stable
// sort of their matches by End restores stream order.
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
	// DFAStateCap bounds the materialized-DFA fast path for general
	// patterns; patterns whose subset construction exceeds it run on the
	// NBVA engine as machines without bit vectors. 0 means 2048; negative
	// disables the DFA path.
	DFAStateCap int
	// DisablePrefilter forces every Shift-And pattern onto the always-on
	// scan path, bypassing the mandatory-literal prefilter. The
	// differential tests compare the two paths for identical match sets.
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

// analysis is the prefilter analysis of one pattern's AST: its mandatory
// literals and the verdict before the tier is known. disabled is every
// Shift-And pattern's under DisablePrefilter.
type analysis struct {
	ast     *regexast.Regex
	lits    [][]byte
	verdict prefilter.Verdict
}

var disabled = &analysis{verdict: prefilter.Verdict{Reason: "prefilter disabled by options"}}

// at returns the lane of m that scans pattern j and j's index in it.
func (m *Matcher) at(j int) (lane, int) {
	for k := 0; m != nil && k < len(m.lanes); k++ {
		if at, ok := slices.BinarySearch(m.lanes[k].pats(), j); ok {
			return m.lanes[k], at
		}
	}
	return nil, -1
}

// laneSet is a matcher's lanes by kind, each empty when it has none.
type laneSet struct {
	sa [2]shiftAndLane // prefiltered, always-on
	nb nbvaLane
	dl dfaLane
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

// buildDFA returns the streaming DFA nfa scans with, nil when its subset
// construction outgrows cap or cap is negative.
func buildDFA(nfa *automata.NFA, cap int) *automata.DFA {
	if cap <= 0 {
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
// machines run as compiled, and NFAs as a materialized DFA or, past its
// cap, as NBVA machines without bit vectors. The matcher is
// all-or-nothing: the first per-pattern failure of res, in pattern
// order, is returned as is.
func FromResult(res *compile.Result, opts Options) (*Matcher, error) {
	return Relower(nil, nil, res, opts)
}

// Relower is FromResult with prev, the Matcher of an earlier generation of
// the ruleset, as its cache, and older, the Matcher prev replaced, behind
// it. A pattern res took from the Result either was lowered from
// (compile.Recompile shares its machine and records its slot in From or
// FromOlder) takes that matcher's DFA table or NBVA kernel, by pointer,
// since no scan writes to either (a DFA cap miss its NBVA machine, so no
// failed subset construction runs again), and its prefilter analysis,
// looked up by that slot. Each lane's slices stay views of the same lane
// of an earlier generation while they hold the same members, so a lane the
// edit left as it was allocates nothing, and a Shift-And lane whose
// members — sequences, by pointer, in order — are those of a lane of prev
// or older takes that lane's machine and prefilter whole; only a lane
// whose membership changed is packed and its literal union built again.
// The Matcher equals FromResult(res, opts) in engines, kernels, verdicts
// and match order. A nil prev and older is FromResult.
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
	if base != nil {
		old = base.kinds
	}
	var saMembers [2]prefix[*compile.LinearSeq]
	var saPatterns [2]prefix[int]
	var saAnalyses [2]prefix[*analysis]
	for k, o := range old.sa {
		saMembers[k].old, saPatterns[k].old, saAnalyses[k].old = o.members, o.patterns, o.analyses
	}
	nbMachines, nbKernels, nbPatterns := prefix[*nbva.Machine]{old: old.nb.machines}, prefix[*nbva.Kernel]{old: old.nb.kernels}, prefix[int]{old: old.nb.patterns}
	nbNFAs := prefix[*automata.NFA]{old: old.nb.nfas}
	dlDFAs, dlNFAs, dlPatterns := prefix[*automata.DFA]{old: old.dl.dfas}, prefix[*automata.NFA]{old: old.dl.nfas}, prefix[int]{old: old.dl.patterns}
	for i := range res.Regexes {
		c := &res.Regexes[i]
		// The lane entry of the slot i was taken from, kept if it is this
		// machine's.
		gen, j := prev, -1
		if res.From != nil && res.From[i] >= 0 {
			j = res.From[i]
		} else if res.FromOlder != nil && res.FromOlder[i] >= 0 {
			gen, j = older, res.FromOlder[i]
		}
		l, at := gen.at(j)
		switch c.Mode {
		case compile.ModeLNFA:
			// Fast-path decision: a pattern with a mandatory literal set
			// joins the prefiltered machine; the rest stay always-on.
			a := disabled
			if o, ok := l.(*shiftAndLane); ok && !opts.DisablePrefilter && o.analyses[at].ast == c.AST {
				a = o.analyses[at]
			} else if !opts.DisablePrefilter {
				a = &analysis{ast: c.AST}
				a.lits, a.verdict = prefilter.Analyze(c.AST.Root)
			}
			k := 1
			if a.lits != nil {
				k = 0
			}
			for s := range c.Seqs {
				saMembers[k].add(&c.Seqs[s])
				saPatterns[k].add(i)
				saAnalyses[k].add(a)
			}
		case compile.ModeNBVA:
			var k *nbva.Kernel
			if o, ok := l.(*nbvaLane); ok && o.machines[at] == c.NBVA {
				k = o.kernels[at]
			} else {
				k = nbva.NewKernel(c.NBVA)
			}
			nbMachines.add(c.NBVA)
			nbKernels.add(k)
			nbNFAs.add(nil)
			nbPatterns.add(i)
		case compile.ModeNFA:
			// A DFA table, or the machine of a cap miss, is kept only under
			// the same cap.
			var dfa *automata.DFA
			var mach *nbva.Machine
			var k *nbva.Kernel
			if o, ok := l.(*dfaLane); ok && o.nfas[at] == c.NFA && gen.opts.DFAStateCap == opts.DFAStateCap {
				dfa = o.dfas[at]
			} else if o, ok := l.(*nbvaLane); ok && o.nfas[at] == c.NFA && gen.opts.DFAStateCap == opts.DFAStateCap {
				mach, k = o.machines[at], o.kernels[at]
			} else if dfa = buildDFA(c.NFA, opts.DFAStateCap); dfa == nil {
				mach = nbva.FromNFA(c.NFA)
				k = nbva.NewKernel(mach)
			}
			if dfa != nil {
				dlDFAs.add(dfa)
				dlNFAs.add(c.NFA)
				dlPatterns.add(i)
				break
			}
			nbMachines.add(mach)
			nbKernels.add(k)
			nbNFAs.add(c.NFA)
			nbPatterns.add(i)
		}
	}
	k := m.kinds
	for j := range k.sa {
		k.sa[j] = shiftAndLane{members: saMembers[j].slice(), patterns: saPatterns[j].slice(), analyses: saAnalyses[j].slice()}
		if err := m.buildShiftAnd(&k.sa[j], &old.sa[j], j == 0); err != nil {
			return nil, err
		}
	}
	k.nb = nbvaLane{machines: nbMachines.slice(), kernels: nbKernels.slice(), nfas: nbNFAs.slice(), patterns: nbPatterns.slice()}
	for _, kernel := range k.nb.kernels {
		if kernel != nil {
			k.nb.words += kernel.Words()
		}
	}
	k.dl = dfaLane{dfas: dlDFAs.slice(), nfas: dlNFAs.slice(), patterns: dlPatterns.slice()}
	if k.dl.loop = old.dl.loop; !same(old.dl.dfas, k.dl.dfas) {
		k.dl.loop = automata.NewWakeLoop(k.dl.dfas)
	}
	for _, l := range []lane{&k.sa[0], &k.sa[1], &k.nb, &k.dl} {
		if len(l.pats()) > 0 {
			m.lanes = append(m.lanes, l)
		}
	}
	return m, nil
}

// buildShiftAnd gives l, a Shift-And lane with its members, its machine
// and, when prefiltered, the prefilter of its patterns' literal union:
// those of old, the same lane of an earlier generation, when it has the
// same members, or built anew.
func (m *Matcher) buildShiftAnd(l, old *shiftAndLane, prefiltered bool) error {
	if len(l.members) == 0 {
		return nil
	}
	if old.sa != nil && same(old.members, l.members) {
		l.sa, l.pf = old.sa, old.pf
		m.lanesReused++
		return nil
	}
	if prefiltered {
		var lits [][]byte
		window := 0
		for j, p := range l.patterns {
			if j == 0 || l.patterns[j-1] != p {
				lits = append(lits, l.analyses[j].lits...)
			}
			window = max(window, len(l.members[j].Classes))
		}
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
// lane's, and the tier, a property of the compiled literal union rather
// than of one pattern, is added to the prefiltered verdicts.
func (m *Matcher) report() {
	m.reportOnce.Do(func() {
		m.engines, m.verdicts = make([]Engine, m.n), make([]prefilter.Verdict, m.n)
		tier := m.PrefilterTier()
		for _, l := range m.lanes {
			for j, p := range l.pats() {
				m.engines[p], m.verdicts[p] = l.engine(), prefilter.Verdict{Reason: "engine " + l.engine().String() + " is always-on"}
				if sa, ok := l.(*shiftAndLane); ok {
					if m.verdicts[p] = sa.analyses[j].verdict; m.verdicts[p].Prefilterable {
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

// Kernels names, per pattern, the software loop that scans it:
// "shiftand-multi" for a linear pattern, the one Shift-And chunk loop of
// every machine width, and for a prefiltered pattern the candidate
// scanner it waits behind ("shiftand-multi behind teddy fp3 avx2"),
// "word64" or — for a machine with more than
// nbva.MaxKernelStates control states — "step" for an NBVA pattern,
// "word64 memchr" when an idle machine skips to its one start byte with
// bytes.IndexByte, followed by its control-state and bit-vector sizes (an
// NFA past the DFA cap is one with 0 BV bits), and "dfa-table" for a DFA
// pattern, anchored and nullable ones included.
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
