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
// same options takes prev's Compiled entry — its AST, machine and CAM codes
// shared by pointer, nothing in them is written after construction — one
// only older holds under the same options takes older's, and only texts
// neither holds are parsed, rewritten and routed. The Result equals a cold
// compile of patterns (Regexes, Diags, Errors, Fingerprint); Reused says how
// many slots were taken from prev, and From which, Restored how many from
// older, and FromOlder which. A nil prev and older, or ones compiled under
// other options, reuse nothing: that is CompileContext.
//
// What it costs follows the edit: a slot whose text is the one at the
// same slot of prev takes that entry, and only the texts that moved or are
// new are indexed and looked up.
func Recompile(ctx context.Context, prev, older *Result, patterns []string, opts Options) (*Result, error) {
	opts.setDefaults()
	n := len(patterns)
	res := &Result{Regexes: make([]Compiled, n), Diags: make([]Diag, n), opts: opts}
	res.opts.Parallelism = 0 // never changes the output, so never refuses reuse
	gens, from := [2]*Result{prev, older}, [2]*[]int{&res.From, &res.FromOlder}
	for k, gen := range gens {
		if gen == nil || gen.opts != res.opts {
			gens[k] = nil
			continue
		}
		*from[k] = make([]int, n)
		for i := range *from[k] {
			(*from[k])[i] = -1
		}
	}
	// A text not at its slot of prev is looked up in one pass over both
	// generations, through an index of those texts alone: prev's entries
	// win, and a generation's last slot holding the text.
	var misses, todo []int
	for i, p := range patterns {
		if gens[0].holds(i, p) {
			res.take(i, gens, 0, i)
		} else {
			misses = append(misses, i)
		}
	}
	at := make(map[string][2]int, len(misses))
	for _, i := range misses {
		at[patterns[i]] = [2]int{-1, -1}
	}
	for k := len(gens) - 1; k >= 0 && len(misses) > 0; k-- {
		for j := range gens[k].regexes() {
			if _, ok := at[gens[k].Regexes[j].Source]; ok && gens[k].Diags[j].OK() {
				at[gens[k].Regexes[j].Source] = [2]int{k, j}
			}
		}
	}
	for _, i := range misses {
		if kj := at[patterns[i]]; kj[0] >= 0 {
			res.take(i, gens, kj[0], kj[1])
		} else {
			todo = append(todo, i)
		}
	}

	// Only texts neither generation holds are compiled, on the pool.
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for t := int(next.Add(1)) - 1; t < len(todo) && ctx.Err() == nil; t = int(next.Add(1)) - 1 {
			i := todo[t]
			c, code, err := compilePattern(patterns[i], opts)
			if err != nil {
				res.Diags[i] = Diag{Index: i, Code: code, Err: err}
				continue
			}
			c.cam = camCodes(c)
			res.set(i, c)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Fold the diagnostics into the legacy Errors list serially, in input
	// order, so error ordering never depends on worker scheduling.
	for i := range res.Diags {
		if d := &res.Diags[i]; d.Err != nil {
			res.Errors = append(res.Errors, &Error{
				Index: d.Index, Pattern: patterns[d.Index], Code: d.Code, Err: d.Err,
			})
		}
	}
	return res, nil
}

// holds reports whether slot i of gen compiled the text p; a nil gen holds
// nothing.
func (gen *Result) holds(i int, p string) bool {
	return gen != nil && i < len(gen.Regexes) && gen.Regexes[i].Source == p && gen.Diags[i].OK()
}

// take fills slot i with slot j of gens[k]: prev's (k 0) or older's.
func (r *Result) take(i int, gens [2]*Result, k, j int) {
	r.set(i, &gens[k].Regexes[j])
	if k == 0 {
		r.From[i], r.Reused = j, r.Reused+1
	} else {
		r.FromOlder[i], r.Restored = j, r.Restored+1
	}
}

// set fills slot i with c. Each slot is written by exactly one worker, so
// no synchronization is needed beyond the pool's WaitGroup.
func (r *Result) set(i int, c *Compiled) {
	r.Regexes[i] = *c
	r.Regexes[i].Index = i
	r.Diags[i] = Diag{Index: i, Code: DiagOK, Mode: c.Mode, ModeReason: c.DecisionTrail}
}

// regexes returns gen's Regexes, none for a nil gen.
func (gen *Result) regexes() []Compiled {
	if gen == nil {
		return nil
	}
	return gen.Regexes
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
