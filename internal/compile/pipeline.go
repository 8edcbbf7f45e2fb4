package compile

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Compile compiles every pattern with the Fig 9 decision graph, fanning
// the per-pattern work out across Options.Parallelism workers. Patterns
// that fail to parse or exceed every open mode's capacity produce a Diag
// with a non-nil Err, an entry in Errors and a zero-value Compiled slot.
func Compile(patterns []string, opts Options) *Result {
	res, _ := CompileContext(context.Background(), patterns, opts)
	return res
}

// CompileContext is Compile with cancellation: the worker pool stops
// claiming patterns once ctx is done and the call returns ctx's error.
// Per-pattern failures are not call errors — they land in Result.Diags
// and Result.Errors; the returned error is non-nil only when the compile
// was abandoned, in which case the partial Result is discarded (nil).
//
// The output is deterministic: pattern i always lands in slot i, and the
// Result is byte-identical whatever the worker count or scheduling.
func CompileContext(ctx context.Context, patterns []string, opts Options) (*Result, error) {
	return Recompile(ctx, nil, nil, patterns, opts)
}

// Recompile is CompileContext with prev, the Result of an earlier
// generation of the ruleset, as its cache, and older, the generation prev
// replaced, behind it. The Fig 9 decision is made per regex with no
// cross-pattern state, so a pattern whose text compiled in prev under the
// same options takes prev's Compiled entry — its AST and machine shared by
// pointer, nothing in them is written after construction — one only older
// holds under the same options takes older's, and only texts neither holds
// are parsed, rewritten and routed. The Result equals a cold compile of
// patterns (Regexes, Diags, Errors, Fingerprint); Reused says how many
// slots were taken from prev, and From which, Restored how many from
// older. A nil prev and older, or ones compiled under other options, reuse
// nothing: that is CompileContext.
func Recompile(ctx context.Context, prev, older *Result, patterns []string, opts Options) (*Result, error) {
	opts.setDefaults()
	res := &Result{
		Regexes: make([]Compiled, len(patterns)),
		Diags:   make([]Diag, len(patterns)),
		opts:    opts,
	}
	res.opts.Parallelism = 0 // never changes the output, so never refuses reuse
	// cached maps each pattern prev compiled to its entry and slot there,
	// and each one only older compiled to its entry there, with From -1.
	var cached map[string]source
	for _, gen := range []*Result{older, prev} { // prev last: its entries win
		if gen == nil || gen.opts != res.opts {
			continue
		}
		if cached == nil {
			cached = make(map[string]source, len(gen.Regexes))
		}
		for i := range gen.Regexes {
			if !gen.Diags[i].OK() {
				continue
			}
			from := -1
			if gen == prev {
				from = i
			}
			cached[gen.Regexes[i].Source] = source{&gen.Regexes[i], from}
		}
	}
	if prev != nil && prev.opts == res.opts {
		res.From = make([]int, len(patterns))
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(patterns) {
		workers = len(patterns)
	}

	var restored atomic.Int64
	if workers <= 1 {
		for i, p := range patterns {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if compileSlot(res, i, p, opts, cached) {
				restored.Add(1)
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(patterns) {
						return
					}
					if compileSlot(res, i, patterns[i], opts, cached) {
						restored.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Fold the diagnostics into the legacy Errors list serially, in input
	// order, so error ordering never depends on worker scheduling.
	for i := range res.Diags {
		if d := &res.Diags[i]; d.Err != nil {
			res.Errors = append(res.Errors, &Error{
				Index: d.Index, Pattern: patterns[d.Index], Code: d.Code, Err: d.Err,
			})
		} else if res.From != nil && res.From[i] >= 0 {
			res.Reused++
		}
	}
	res.Restored = int(restored.Load())
	return res, nil
}

// source is a cached entry of an earlier generation and its slot in prev,
// -1 for one of older.
type source struct {
	c    *Compiled
	from int
}

// compileSlot fills Result slot i with pattern's cached entry when there is
// one and with a fresh compile otherwise, and reports whether the entry was
// older's. Each slot is written by exactly one worker (the one that claimed
// index i), so no synchronization is needed beyond the pool's WaitGroup.
func compileSlot(res *Result, i int, pattern string, opts Options, cached map[string]source) (restored bool) {
	s, ok := cached[pattern]
	if !ok {
		s.from = -1
		var code DiagCode
		var err error
		if s.c, code, err = compilePattern(pattern, opts); err != nil {
			res.Diags[i] = Diag{Index: i, Code: code, Err: err}
		}
	}
	if res.From != nil {
		res.From[i] = s.from
	}
	if res.Diags[i].Err != nil {
		return false
	}
	res.Regexes[i] = *s.c
	res.Regexes[i].Index = i
	res.Diags[i] = Diag{Index: i, Code: DiagOK, Mode: s.c.Mode, ModeReason: s.c.DecisionTrail}
	return ok && s.from < 0
}

// Fingerprint returns a content hash over everything mapping and
// bitstream generation consume from the Result: per-pattern source, mode,
// state/bit-vector sizes, decision trail and diagnostic outcome. Two
// Results with equal fingerprints produce identical programs; the
// determinism tests compare serial and parallel compiles through it.
func (r *Result) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "compile/v1|n=%d", len(r.Regexes))
	for i := range r.Regexes {
		c := &r.Regexes[i]
		fmt.Fprintf(h, "|%d:%q:%d:%d:%d:%d:%g:%q",
			c.Index, c.Source, c.Mode, c.STEs, c.BVBits, c.UnfoldedSTEs, c.LinearGrowth, c.DecisionTrail)
		for _, s := range c.Seqs {
			fmt.Fprintf(h, "|seq:%d:%t", len(s.Classes), s.CAMMappable)
		}
	}
	for i := range r.Diags {
		d := &r.Diags[i]
		fmt.Fprintf(h, "|diag:%d:%s:%q", d.Index, d.Code, d.ModeReason)
		if d.Err != nil {
			fmt.Fprintf(h, ":%q", d.Err.Error())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
