// Package compile implements the RAP regex-to-hardware compiler front half
// (§4): the Fig 9 decision graph choosing NBVA, LNFA or NFA mode for each
// regex, the §4.1 rewriting pipeline (unfolding + bounded-repetition
// rewriting) for NBVA, and the §4.2 linearization for LNFA. The output is
// a mode-tagged, automaton-level representation the mapper places onto
// tiles (internal/mapper) and the cycle simulator executes (internal/sim).
//
// Compilation is embarrassingly parallel per regex: CompileContext fans
// the per-pattern work (parse → rewrite → mode decision → automaton
// build) out across a bounded worker pool and produces deterministic,
// order-preserving Results with typed per-pattern diagnostics (Diag).
// Which Fig 9 routes are open is an Options.ModePolicy: ForceNFA for
// the paper's NFA mode, AllowNBVA/AllowLNFA to open the rewriting
// routes selectively, AllowAll for the full decision graph.
package compile

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/charclass"
	"repro/internal/nbva"
	"repro/internal/regexast"
)

// Mode is the RAP execution mode chosen for a regex.
type Mode int

const (
	// ModeNFA is the baseline mode: Glushkov NFA on CAM + crossbar.
	ModeNFA Mode = iota
	// ModeNBVA compresses large bounded repetitions into bit vectors.
	ModeNBVA
	// ModeLNFA executes linear patterns with Shift-And on the CAM or the
	// repurposed local switch.
	ModeLNFA
)

func (m Mode) String() string {
	switch m {
	case ModeNBVA:
		return "NBVA"
	case ModeLNFA:
		return "LNFA"
	default:
		return "NFA"
	}
}

// ModePolicy selects which routes of the Fig 9 decision graph the
// compiler may take. The zero value opens every route (NBVA, LNFA, NFA —
// the paper's full compiler); combine AllowNBVA/AllowLNFA to open a
// subset, or use ForceNFA to unfold everything to basic Glushkov NFAs.
type ModePolicy uint8

const (
	// AllowNBVA opens the §4.1 bit-vector route for large bounded
	// repetitions. AllowNBVA alone (no AllowLNFA) is the program BVAP
	// executes: it has bit-vector modules but no Shift-And datapath.
	AllowNBVA ModePolicy = 1 << iota
	// AllowLNFA opens the §4.2 linearization route for linear patterns.
	AllowLNFA
	// ForceNFA closes every rewriting route: all regexes unfold to basic
	// Glushkov NFAs, the form the CAMA and CA baselines execute and the
	// "NFA mode" rows of Tables 2–3 ("We unfold all regexes to basic NFAs
	// to obtain NFA mode results", §5.4).
	ForceNFA
)

// PolicyDefault is the zero ModePolicy: every route open (normalized to
// AllowNBVA|AllowLNFA by Options defaulting).
const PolicyDefault ModePolicy = 0

func (p ModePolicy) allowNBVA() bool { return p&ForceNFA == 0 && (p == 0 || p&AllowNBVA != 0) }
func (p ModePolicy) allowLNFA() bool { return p&ForceNFA == 0 && (p == 0 || p&AllowLNFA != 0) }

func (p ModePolicy) String() string {
	switch {
	case p&ForceNFA != 0:
		return "force-nfa"
	case p.allowNBVA() && p.allowLNFA():
		return "fig9"
	case p.allowNBVA():
		return "nbva+nfa"
	case p.allowLNFA():
		return "lnfa+nfa"
	default:
		return "nfa"
	}
}

// Options are the compiler knobs exposed by the paper.
type Options struct {
	// UnfoldThreshold: bounded repetitions with upper bound at or below it
	// are unfolded into states (§4.1). Default 16.
	UnfoldThreshold int
	// LinearBudgetFactor: LNFA rewriting may grow states at most this
	// factor (§4.2, Fig 9 uses 2).
	LinearBudgetFactor int
	// MaxNFAStates: regexes whose unfolded NFA exceeds this are rejected
	// in NFA mode (§3.3: 2048 per array). NBVA-mode regexes may unfold up
	// to MaxNBVAUnfolded (§3.3: 64528).
	MaxNFAStates int
	// MaxNBVAUnfolded bounds the unfolded size of NBVA-mode regexes.
	MaxNBVAUnfolded int
	// ModePolicy selects the open Fig 9 routes. Zero means every route.
	ModePolicy ModePolicy
	// Parallelism bounds the compile worker pool; 0 means
	// runtime.GOMAXPROCS(0), 1 compiles serially. The output is
	// byte-identical at every setting.
	Parallelism int
}

// DefaultOptions returns the paper's defaults.
func DefaultOptions() Options {
	return Options{
		UnfoldThreshold:    16,
		LinearBudgetFactor: 2,
		MaxNFAStates:       2048,
		MaxNBVAUnfolded:    64528,
		ModePolicy:         AllowNBVA | AllowLNFA,
	}
}

func (o *Options) setDefaults() {
	d := DefaultOptions()
	if o.UnfoldThreshold == 0 {
		o.UnfoldThreshold = d.UnfoldThreshold
	}
	if o.LinearBudgetFactor == 0 {
		o.LinearBudgetFactor = d.LinearBudgetFactor
	}
	if o.MaxNFAStates == 0 {
		o.MaxNFAStates = d.MaxNFAStates
	}
	if o.MaxNBVAUnfolded == 0 {
		o.MaxNBVAUnfolded = d.MaxNBVAUnfolded
	}
	if o.ModePolicy == PolicyDefault {
		o.ModePolicy = d.ModePolicy
	}
}

// Canonical returns a stable serialization of the options with defaults
// applied: two Options values that compile identically produce the same
// canonical form. Parallelism never changes the output, so it is left
// out.
func (o Options) Canonical() string {
	o.setDefaults()
	return fmt.Sprintf("ut=%d|lbf=%d|mns=%d|mnu=%d|pol=%s",
		o.UnfoldThreshold, o.LinearBudgetFactor, o.MaxNFAStates, o.MaxNBVAUnfolded, o.ModePolicy)
}

// DiagCode classifies one per-pattern compile outcome.
type DiagCode string

const (
	// DiagOK: the pattern compiled to the mode recorded in its Compiled.
	DiagOK DiagCode = "ok"
	// DiagParseError: the pattern is not valid regex syntax.
	DiagParseError DiagCode = "parse_error"
	// DiagCapacity: no open mode can hold the pattern within the §3.3
	// state/bit-vector capacity limits.
	DiagCapacity DiagCode = "capacity_exceeded"
)

// Diag is the typed per-pattern diagnostic of one compile slot. Every
// input pattern gets exactly one, ok or not — failures are never silently
// dropped from the Result.
type Diag struct {
	// Index is the pattern's position in the input list.
	Index int
	// Code classifies the outcome.
	Code DiagCode
	// Mode is the chosen execution mode when Code == DiagOK.
	Mode Mode
	// ModeReason is the human-readable route through Fig 9 (the decision
	// trail), also present on failures up to the point they occurred.
	ModeReason string
	// Err is the failure, nil when Code == DiagOK.
	Err error
}

// OK reports whether the pattern compiled.
func (d Diag) OK() bool { return d.Err == nil }

// Error is the typed per-pattern compile failure stored in
// Result.Errors. errors.As extracts it; errors.Is sees through it to the
// underlying cause (regexast.ErrBudget, nbva.ErrNotCompilable, ...).
type Error struct {
	Index   int
	Pattern string
	Code    DiagCode
	Err     error
}

func (e *Error) Error() string { return fmt.Sprintf("pattern %d %q: %v", e.Index, e.Pattern, e.Err) }
func (e *Error) Unwrap() error { return e.Err }

// LinearSeq is one compiled LNFA sequence with its CAM-encodability
// classification (§3.2: single-32-bit-code CCs map to the CAM; others use
// the one-hot scheme on the local switch).
type LinearSeq struct {
	Classes []charclass.Class
	// CAMMappable is true when every class fits one 32-bit CAM code.
	CAMMappable bool
}

// Compiled is one regex compiled to its chosen mode. Exactly one of the
// mode payloads is populated.
type Compiled struct {
	Index  int    // position in the input pattern list
	Source string // original pattern text
	Mode   Mode
	// AST is the parsed pattern, for consumers that analyze the regex
	// itself (refmatch's literal prefilter). Imported automata
	// (FromNFAs) have none.
	AST *regexast.Regex

	NFA  *automata.NFA // ModeNFA
	NBVA *nbva.Machine // ModeNBVA
	Seqs []LinearSeq   // ModeLNFA (union members of the rewritten regex)

	// Stats used by mapping and reporting.
	STEs          int // control states placed on hardware in this mode
	BVBits        int // total bit-vector storage (NBVA only)
	UnfoldedSTEs  int // size of the equivalent basic NFA
	LinearGrowth  float64
	DecisionTrail string // human-readable route through Fig 9

	cam *[]uint32 // CAMCodes', behind a pointer: each generation copies the entry
}

// CAMCodes returns the 32-bit CAM code the image builder writes for each
// of the regex's states, in state order (an LNFA regex's sequence by
// sequence): its class's first, hi mask << 16 | lo mask. A compiled regex
// carries them, shared like its machine by the generations that keep it;
// one built by hand computes them on each call. A multi-code class's other
// codes would take more columns in a full layout, a simplification that
// matches the one-column-per-STE area model.
func (c *Compiled) CAMCodes() []uint32 {
	if c.cam != nil {
		return *c.cam
	}
	return *camCodes(c)
}

func camCodes(c *Compiled) *[]uint32 {
	codes := make([]uint32, 0, c.STEs)
	add := func(cls charclass.Class) {
		k := charclass.FirstCode(cls)
		codes = append(codes, uint32(k.Hi)<<16|uint32(k.Lo))
	}
	for q := 0; c.NFA != nil && q < len(c.NFA.States); q++ {
		add(c.NFA.States[q].Class)
	}
	for q := 0; c.NBVA != nil && q < len(c.NBVA.States); q++ {
		add(c.NBVA.States[q].Class)
	}
	for _, s := range c.Seqs { // LNFA
		for _, cls := range s.Classes {
			add(cls)
		}
	}
	return &codes
}

// Result is the output of compiling a pattern set.
type Result struct {
	Regexes []Compiled
	// Diags holds one typed diagnostic per input pattern, in input order.
	Diags []Diag
	// Errors lists the per-pattern compile failures (indexes preserved);
	// every entry is a *compile.Error. Derived from Diags.
	Errors []error
	// Reused counts the slots Recompile took from the previous generation
	// and Restored those it took from the one before that, instead of
	// compiling; the other len(Regexes)-Reused-Restored were compiled.
	Reused, Restored int
	// From holds, for each slot Recompile took from the previous
	// generation, that generation's slot, and -1 for a slot compiled anew
	// or restored; nil when the previous generation could not be reused.
	// mapper.Remap keeps such a regex where the previous generation placed
	// it, and places a restored one as new.
	From []int
	// FromOlder holds, for each slot Recompile restored from the
	// generation before the previous one, that generation's slot, and -1
	// for the others; nil when that generation could not be reused.
	FromOlder []int

	// opts are the defaulted options the Result was compiled under (zero
	// for FromNFAs); Recompile reuses entries only under equal options.
	opts Options
}

// ByMode returns the compiled regexes of one mode.
func (r *Result) ByMode(m Mode) []*Compiled {
	var out []*Compiled
	for i := range r.Regexes {
		if r.Regexes[i].Mode == m && r.Regexes[i].Source != "" {
			out = append(out, &r.Regexes[i])
		}
	}
	return out
}

// Sources returns the pattern text of the regexes compiled to one mode,
// in input order: the per-mode subset §5's tables and sweeps run on.
func (r *Result) Sources(m Mode) []string {
	var out []string
	for _, c := range r.ByMode(m) {
		out = append(out, c.Source)
	}
	return out
}

// ModeShares returns the fraction of successfully compiled regexes per
// mode — the Fig 1 statistic.
func (r *Result) ModeShares() map[Mode]float64 {
	counts := map[Mode]int{}
	total := 0
	for i := range r.Regexes {
		if r.Regexes[i].Source == "" {
			continue
		}
		counts[r.Regexes[i].Mode]++
		total++
	}
	out := map[Mode]float64{}
	if total == 0 {
		return out
	}
	for m, c := range counts {
		out[m] = float64(c) / float64(total)
	}
	return out
}

// FromNFAs wraps pre-built homogeneous NFAs (e.g. imported from MNRL
// files, the ANMLZoo distribution format) as an NFA-mode compile result
// that the mapper and simulators accept directly. sources provides
// per-automaton labels (pattern text or network ids); it may be nil.
func FromNFAs(nfas []*automata.NFA, sources []string) *Result {
	res := &Result{
		Regexes: make([]Compiled, len(nfas)),
		Diags:   make([]Diag, len(nfas)),
	}
	for i, nfa := range nfas {
		src := fmt.Sprintf("nfa-%d", i)
		if i < len(sources) && sources[i] != "" {
			src = sources[i]
		}
		res.Regexes[i] = Compiled{
			Index: i, Source: src, Mode: ModeNFA, NFA: nfa,
			STEs: nfa.NumStates(), UnfoldedSTEs: nfa.NumStates(),
			DecisionTrail: "imported NFA",
		}
		res.Diags[i] = Diag{Index: i, Code: DiagOK, Mode: ModeNFA, ModeReason: "imported NFA"}
	}
	return res
}

// compilePattern runs the policy-gated decision graph for one pattern.
// opts must already be defaulted. It is pure — no shared state — which is
// what lets CompileContext fan patterns out across workers while keeping
// the output byte-identical to a serial compile.
//
// Fig 9 decision process (routes gated by Options.ModePolicy):
//
//  1. Regexes containing a bounded repetition above the unfolding
//     threshold whose repetitions are class-level (expressible with the
//     set1/shift/r(n)/rAll actions) compile to NBVA.
//  2. Otherwise, if the §4.2 rewriting turns the regex into a union of
//     class sequences without growing past LinearBudgetFactor × states,
//     it compiles to LNFA.
//  3. Everything else compiles to NFA (classical Glushkov), subject to
//     the per-array state capacity.
func compilePattern(pattern string, opts Options) (*Compiled, DiagCode, error) {
	re, err := regexast.Parse(pattern)
	if err != nil {
		return nil, DiagParseError, err
	}
	c := &Compiled{Source: pattern, AST: re}
	pol := opts.ModePolicy

	// Route 1: NBVA.
	if pol.allowNBVA() && regexast.MaxRepeatBound(re.Root) > opts.UnfoldThreshold {
		root := regexast.SplitMinMax(regexast.UnfoldThreshold(re.Root, opts.UnfoldThreshold))
		if m, err := nbva.ConstructFromNode(root); err == nil {
			if m.UnfoldedStates() <= opts.MaxNBVAUnfolded {
				m.StartAnchored = re.StartAnchored
				m.EndAnchored = re.EndAnchored
				c.Mode = ModeNBVA
				c.NBVA = m
				c.STEs = m.NumStates()
				c.BVBits = m.TotalBVBits()
				c.UnfoldedSTEs = m.UnfoldedStates()
				c.DecisionTrail = "bounded repetition above threshold -> NBVA"
				return c, DiagOK, nil
			}
			c.DecisionTrail += "NBVA capacity exceeded; "
		} else {
			c.DecisionTrail += "bounded repetition not BV-encodable; "
		}
	}

	// Route 2: LNFA. Small bounded repetitions are unfolded first so a
	// pattern like a{3}b linearizes.
	if pol.allowLNFA() {
		if !re.StartAnchored && !re.EndAnchored && !regexast.Nullable(re.Root) {
			unfolded := regexast.UnfoldThreshold(re.Root, opts.UnfoldThreshold)
			baseStates := regexast.UnfoldedStates(re.Root)
			// LNFA regexes live in one array like NFA ones (§3.3), so the
			// budget saturates at the array's state capacity.
			budget := opts.MaxNFAStates
			if opts.LinearBudgetFactor <= budget/baseStates {
				budget = opts.LinearBudgetFactor * baseStates
			}
			if seqs, err := regexast.Linearize(unfolded, budget); err == nil {
				total := 0
				c.Seqs = make([]LinearSeq, len(seqs))
				for i, s := range seqs {
					ls := LinearSeq{Classes: s, CAMMappable: true}
					for _, cls := range s {
						if !charclass.SingleCode(cls) {
							ls.CAMMappable = false
						}
					}
					c.Seqs[i] = ls
					total += len(s)
				}
				c.Mode = ModeLNFA
				c.STEs = total
				c.UnfoldedSTEs = baseStates
				if baseStates > 0 {
					c.LinearGrowth = float64(total) / float64(baseStates)
				}
				c.DecisionTrail += "linearizable within 2x -> LNFA"
				return c, DiagOK, nil
			}
			c.DecisionTrail += "not linearizable; "
		} else {
			c.DecisionTrail += "anchored or nullable; "
		}
	}

	// Route 3: NFA.
	nfa, err := automata.Glushkov(re, opts.MaxNFAStates)
	if err != nil {
		if pol&ForceNFA != 0 {
			return nil, DiagCapacity, err
		}
		return nil, DiagCapacity, fmt.Errorf("compile: no mode fits: %w", err)
	}
	c.Mode = ModeNFA
	c.NFA = nfa
	c.STEs = nfa.NumStates()
	c.UnfoldedSTEs = nfa.NumStates()
	if pol&ForceNFA != 0 {
		c.DecisionTrail = "forced NFA"
	} else {
		c.DecisionTrail += "fallback -> NFA"
	}
	return c, DiagOK, nil
}
