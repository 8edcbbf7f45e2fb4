package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/metrics"
	"repro/internal/refmatch"
)

// ModePolicy values accepted by CompileOptions.ModePolicy.
const (
	// ModePolicyAll (or "") opens every Fig 9 engine route: Shift-And
	// for linear patterns, NBVA for large bounded repetitions, NFA/DFA
	// for the rest.
	ModePolicyAll = "all"
	// ModePolicyForceNFA compiles every pattern on the NFA route — the
	// paper's NFA mode (compile.ForceNFA). It trades scan speed for the
	// most uniform machine shape.
	ModePolicyForceNFA = "force_nfa"
)

// CompileOptions is the wire form of refmatch.Options. The zero value
// means defaults; distinct option sets hash to distinct program IDs.
type CompileOptions struct {
	LinearBudgetFactor int  `json:"linear_budget_factor,omitempty"`
	UnfoldThreshold    int  `json:"unfold_threshold,omitempty"`
	MaxNFAStates       int  `json:"max_nfa_states,omitempty"`
	DFAStateCap        int  `json:"dfa_state_cap,omitempty"`
	DisablePrefilter   bool `json:"disable_prefilter,omitempty"`
	// ModePolicy selects the open engine routes: "" or "all" (default,
	// every route) or "force_nfa" (NFA mode only). Distinct policies
	// compile to distinct cached programs.
	ModePolicy string `json:"mode_policy,omitempty"`
}

// validate rejects an unknown ModePolicy and a negative front-end bound
// before they reach a compile. A negative DFAStateCap disables the DFA path:
// every NFA then runs on the NBVA engine as a machine without bit vectors.
func (o CompileOptions) validate() error {
	if o.LinearBudgetFactor < 0 || o.UnfoldThreshold < 0 || o.MaxNFAStates < 0 {
		return fmt.Errorf("service: linear_budget_factor, unfold_threshold and max_nfa_states must not be negative")
	}
	switch o.ModePolicy {
	case "", ModePolicyAll, ModePolicyForceNFA:
		return nil
	}
	return fmt.Errorf("service: unknown mode_policy %q (want %q or %q)",
		o.ModePolicy, ModePolicyAll, ModePolicyForceNFA)
}

// options is the one conversion from the wire form to the compiler's
// option type; the front-end half is its embedded compile.Options.
func (o CompileOptions) options() refmatch.Options {
	ro := refmatch.Options{
		Options: compile.Options{
			UnfoldThreshold:    o.UnfoldThreshold,
			LinearBudgetFactor: o.LinearBudgetFactor,
			MaxNFAStates:       o.MaxNFAStates,
		},
		DFAStateCap:      o.DFAStateCap,
		DisablePrefilter: o.DisablePrefilter,
	}
	if o.ModePolicy == ModePolicyForceNFA {
		ro.ModePolicy = compile.ForceNFA
	}
	return ro
}

// build runs the compiler front-end once over patterns and lowers its
// Result onto the software matcher. The Result comes back too: it is
// what the deployment image is mapped from (deploy). prev, when not nil,
// is the program being replaced: patterns it or the generation it
// displaced already hold keep their compiled entry and lowered tables
// (compile.Recompile, refmatch.Relower, which also decide when options rule
// that out). A nil prev is a cold compile — the same path with nothing to
// reuse.
func build(ctx context.Context, prev *Program, patterns []string, opts CompileOptions) (*refmatch.Matcher, *compile.Result, error) {
	var cur, displaced generation
	if prev != nil {
		cur, displaced = generation{prev.res, prev.Matcher}, prev.displaced
	}
	ro := opts.options()
	res, err := compile.Recompile(ctx, cur.res, displaced.res, patterns, ro.FrontEnd())
	if err != nil {
		return nil, nil, err
	}
	m, err := refmatch.Relower(cur.m, displaced.m, res, ro)
	if err != nil {
		return nil, nil, err
	}
	return m, res, nil
}

// programKey is the content hash identifying a compiled program: same
// patterns in the same order with equivalent options → same key.
func programKey(patterns []string, opts CompileOptions) string {
	return hashStrings(opts.options().Canonical(), patterns...)
}

// hashStrings hashes a format tag plus length-prefixed parts, so no
// concatenation of distinct lists collides and any semantic difference —
// a pattern edited, a knob changed — produces a different key.
func hashStrings(tag string, parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|n=%d", tag, len(parts))
	for _, p := range parts {
		fmt.Fprintf(h, "|%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ProgramKey returns the content-hash program ID that Compile would
// assign to (patterns, opts), without compiling. The cluster layer
// routes placement decisions on this key before any node has built the
// program, so every node derives identical IDs from the wire request.
func ProgramKey(patterns []string, opts CompileOptions) string {
	return programKey(patterns, opts)
}

// Program is one compiled, cached pattern set. The Matcher is immutable
// after compilation and shared read-only by every scan and session, so a
// Program needs no lock beyond the lazily-built deployment image; its
// counters are atomic. Update never mutates a Program — it builds a new
// one and swaps it behind the same ID, so sessions holding the old
// pointer keep matching the ruleset they opened against. Successive
// generations share the compiled entries and scan tables of the patterns
// they have in common; nothing shared is written after construction.
type Program struct {
	ID        string
	Matcher   *refmatch.Matcher
	CreatedAt time.Time
	Opts      CompileOptions
	// Generation counts hot-swaps behind this ID; 0 is the initial deploy.
	Generation int64
	// Owner is the tenant whose compile created this program; MemBytes
	// (a model, see memEstimate) is charged to it for as long as the
	// program stays cached.
	Owner    string
	MemBytes int64

	// res is the compile the Matcher was lowered from. It stays with the
	// program: the update that replaces it takes from res and Matcher
	// every pattern the two rulesets share, and from displaced every other
	// one the generation before held, so a revert compiles nothing.
	res *compile.Result
	// displaced is the generation this one replaced, its compile and
	// matcher but never its Program, so that a generation keeps one
	// predecessor alive and never a chain; zero on the initial deploy.
	displaced generation
	// hwPlace and hwImg are the program's placement and deployment
	// bitstream: the update that replaces the program remaps from the one
	// and rebuilds on — and diffs against — the other. Set at construction
	// by the update that built them, else built cold from res on first use.
	hwOnce  sync.Once
	hwPlace *arch.Placement
	hwImg   *bitstream.Image
	hwErr   error

	// sessPool recycles refmatch.Sessions across one-shot scans and
	// closed streams: all per-flow scratch (Shift-And state words, NBVA
	// vectors, prefilter history, match buffers) is reused instead of
	// reallocated per request. Safe because a pooled Session is reset on
	// checkout and the Matcher it wraps is immutable.
	sessPool sync.Pool

	scans    metrics.Counter
	bytes    metrics.Counter
	matches  metrics.Counter
	sessions metrics.Counter // sessions ever opened against this program
}

// generation is one compiled ruleset and the matcher lowered from it.
type generation struct {
	res *compile.Result
	m   *refmatch.Matcher
}

// memEstimate models a compiled program's resident footprint for
// per-tenant cache accounting: a fixed per-program base plus a
// per-pattern term dominated by the compiled machine tables (bit masks,
// DFA rows, prefilter literals scale with pattern length). It is a
// deterministic model, not a heap measurement — what matters for QoS is
// that the charge is proportional and attributable.
func memEstimate(patterns []string) int64 {
	total := int64(4096)
	for _, p := range patterns {
		total += 512 + int64(len(p))*96
	}
	return total
}

// getSession checks a reset Session out of the program's pool.
func (p *Program) getSession() *refmatch.Session {
	if v := p.sessPool.Get(); v != nil {
		s := v.(*refmatch.Session)
		s.Reset()
		return s
	}
	return p.Matcher.NewSession()
}

// putSession returns a Session to the pool once no caller references it.
func (p *Program) putSession(s *refmatch.Session) { p.sessPool.Put(s) }

// hwImage returns the program's deployment image and its placement,
// building both on demand.
func (p *Program) hwImage() (*bitstream.Image, *arch.Placement, error) {
	p.hwOnce.Do(func() {
		if p.hwImg == nil {
			p.hwImg, p.hwPlace, _, p.hwErr = deploy(nil, nil, nil, p.res)
		}
	})
	return p.hwImg, p.hwPlace, p.hwErr
}

// ProgramStats is the JSON snapshot of one program's counters.
type ProgramStats struct {
	ID          string         `json:"id"`
	NumPatterns int            `json:"num_patterns"`
	Engines     map[string]int `json:"engines"`
	Prefiltered int            `json:"prefiltered"` // patterns on the literal-prefilter fast path
	// PrefilterTier is the candidate-scanner tier of the compiled literal
	// union (memchr, bytetable, teddy, ac), empty when nothing prefilters.
	PrefilterTier string `json:"prefilter_tier,omitempty"`
	// PrefilterKernel is the scan loop behind that tier, which the host's
	// CPU chooses ("teddy fp3 avx2", or "teddy fp3 stride4" without AVX2).
	PrefilterKernel string    `json:"prefilter_kernel,omitempty"`
	CreatedAt       time.Time `json:"created_at"`
	Generation      int64     `json:"generation"`
	Scans           int64     `json:"scans"`
	Bytes           int64     `json:"bytes"`
	Matches         int64     `json:"matches"`
	Sessions        int64     `json:"sessions"`
}

// Stats snapshots the program counters.
func (p *Program) Stats() ProgramStats {
	return ProgramStats{
		ID:              p.ID,
		NumPatterns:     p.Matcher.NumPatterns(),
		Engines:         p.engineCounts(),
		Prefiltered:     p.prefilteredCount(),
		PrefilterTier:   p.Matcher.PrefilterTier(),
		PrefilterKernel: p.Matcher.PrefilterKernel(),
		CreatedAt:       p.CreatedAt,
		Generation:      p.Generation,
		Scans:           p.scans.Value(),
		Bytes:           p.bytes.Value(),
		Matches:         p.matches.Value(),
		Sessions:        p.sessions.Value(),
	}
}

func (p *Program) engineCounts() map[string]int {
	out := map[string]int{}
	for _, e := range p.Matcher.Engines() {
		out[e.String()]++
	}
	return out
}

func (p *Program) prefilteredCount() int {
	n := 0
	for _, v := range p.Matcher.PrefilterVerdicts() {
		if v.Prefilterable {
			n++
		}
	}
	return n
}
