// Package verify is the differential verification harness: it generates
// random pattern sets and inputs, runs them through every execution engine
// in the repository — the RAP cycle simulator (all three modes), the
// CAMA / CA / BVAP baseline simulators, the software reference matcher,
// and (for the compatible subset) Go's regexp package — and reports any
// disagreement. It generalizes the §5.2 Hyperscan consistency check into
// a standing fuzzing tool (cmd/rapverify).
package verify

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"repro/internal/core"
	"repro/internal/refmatch"
)

// Options configure a verification run.
type Options struct {
	// Trials is the number of random (pattern set, input) pairs.
	Trials int
	// PatternsPerTrial is the pattern set size.
	PatternsPerTrial int
	// InputLen is the input stream length per trial.
	InputLen int
	// Seed makes runs reproducible.
	Seed int64
	// CheckStdlib additionally compares boolean match results against
	// Go's regexp for every pattern (on the RE2-compatible subset the
	// generator emits).
	CheckStdlib bool
}

func (o *Options) setDefaults() {
	if o.Trials == 0 {
		o.Trials = 50
	}
	if o.PatternsPerTrial == 0 {
		o.PatternsPerTrial = 6
	}
	if o.InputLen == 0 {
		o.InputLen = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Mismatch describes one disagreement found.
type Mismatch struct {
	Trial    int
	Engine   string
	Patterns []string
	Detail   string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("trial %d [%s]: %s (patterns: %s)",
		m.Trial, m.Engine, m.Detail, strings.Join(m.Patterns, " | "))
}

// Result summarizes a run.
type Result struct {
	Trials     int
	Engines    []string
	Mismatches []Mismatch
	Matches    int64 // total matches observed (sanity that inputs exercise patterns)
}

// Run executes the harness.
func Run(opts Options) (*Result, error) {
	opts.setDefaults()
	r := rand.New(rand.NewSource(opts.Seed))
	res := &Result{
		Trials:  opts.Trials,
		Engines: []string{"RAP", "RAP-shared", "RAP-NFA", "CAMA", "CA", "BVAP", "refmatch"},
	}
	for trial := 0; trial < opts.Trials; trial++ {
		patterns := genPatterns(r, opts.PatternsPerTrial)
		input := genInput(r, patterns, opts.InputLen)
		hits, counts, err := runEngines(patterns, input)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", trial, err)
		}
		want := int64(len(hits))
		res.Matches += want
		for engine, got := range counts {
			if got != want {
				res.Mismatches = append(res.Mismatches, Mismatch{
					Trial: trial, Engine: engine, Patterns: patterns,
					Detail: fmt.Sprintf("matches %d, reference %d", got, want),
				})
			}
		}
		if opts.CheckStdlib {
			res.Mismatches = append(res.Mismatches, checkStdlib(trial, patterns, input, hits)...)
		}
	}
	return res, nil
}

// runEngines returns the reference matcher's matches and every engine's
// match count: the five §5 architectures under the default engine, and RAP
// again with the prefix-sharing trie merge, whose semantics must be
// untouched by it.
func runEngines(patterns []string, input []byte) ([]refmatch.Match, map[string]int64, error) {
	eng := core.NewDefault()
	ref, err := eng.Match(patterns, input)
	if err != nil {
		return nil, nil, err
	}
	reps, err := eng.Compare(patterns, input, core.Archs...)
	if err != nil {
		return nil, nil, err
	}
	shared, err := core.New(core.Config{SharePrefixes: true}).Compare(patterns, input, core.RAP)
	if err != nil {
		return nil, nil, err
	}
	counts := map[string]int64{"refmatch": int64(len(ref)), "RAP-shared": shared[0].Matches}
	for _, r := range reps {
		counts[r.Arch] = r.Matches
	}
	return ref, counts, nil
}

// checkStdlib compares boolean containment per pattern of the reference
// matcher's hits with Go's regexp.
func checkStdlib(trial int, patterns []string, input []byte, hits []refmatch.Match) []Mismatch {
	var out []Mismatch
	matched := map[int]bool{}
	for _, hit := range hits {
		matched[hit.Pattern] = true
	}
	for i, p := range patterns {
		oracle, err := regexp.Compile("(?s)" + p)
		if err != nil {
			continue // outside RE2 subset; skip
		}
		want := oracle.Match(input)
		if want {
			if loc := oracle.FindIndex(input); loc != nil && loc[0] == loc[1] {
				continue // empty-width match: streaming semantics differ by design
			}
		}
		if matched[i] != want {
			out = append(out, Mismatch{
				Trial: trial, Engine: "stdlib-regexp", Patterns: []string{p},
				Detail: fmt.Sprintf("ours=%v stdlib=%v", matched[i], want),
			})
		}
	}
	return out
}

// genPatterns emits a random mixed-mode pattern set: linear strings,
// bounded repetitions, and Kleene structures, the last two a third of the
// time anchored at the start (^) or the end ($) of the input.
func genPatterns(r *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		switch r.Intn(5) {
		case 0: // linear literal
			out[i] = randWord(r, 3+r.Intn(8))
		case 1: // linear with classes
			var b strings.Builder
			for j := 0; j < 3+r.Intn(5); j++ {
				if r.Intn(3) == 0 {
					b.WriteString("[" + randWord(r, 2) + "]")
				} else {
					b.WriteString(randWord(r, 1))
				}
			}
			out[i] = b.String()
		case 2: // exact bounded repetition
			out[i] = anchor(r, fmt.Sprintf("%s%c{%d}%s", randWord(r, 2), 'a'+rune(r.Intn(4)), 17+r.Intn(120), randWord(r, 2)))
		case 3: // range / up-to repetition
			lo := 17 + r.Intn(40)
			out[i] = anchor(r, fmt.Sprintf("%s%c{%d,%d}%s", randWord(r, 2), 'a'+rune(r.Intn(4)), lo, lo+r.Intn(40)+1, randWord(r, 1)))
		default: // Kleene structure
			out[i] = anchor(r, fmt.Sprintf("%s(%s|%s)*%s", randWord(r, 2), randWord(r, 2), randWord(r, 2), randWord(r, 2)))
		}
	}
	return out
}

// anchor prefixes p with ^ or suffixes it with $, each one time in six.
func anchor(r *rand.Rand, p string) string {
	switch r.Intn(6) {
	case 0:
		return "^" + p
	case 1:
		return p + "$"
	}
	return p
}

func randWord(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(6))
	}
	return string(b)
}

// genInput builds a background stream and plants fragments of the
// patterns' literal parts to provoke matches and near-matches. An
// anchored pattern's fragment goes at its anchor half of the time and
// anywhere else otherwise.
func genInput(r *rand.Rand, patterns []string, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + r.Intn(6))
	}
	for k := 0; k < n/200; k++ {
		p := patterns[r.Intn(len(patterns))]
		frag := literalFragment(p, r)
		if len(frag) == 0 || len(frag) >= n {
			continue
		}
		at := r.Intn(n - len(frag))
		if r.Intn(2) == 0 {
			if p[0] == '^' {
				at = 0
			} else if p[len(p)-1] == '$' {
				at = n - len(frag)
			}
		}
		copy(out[at:], frag)
	}
	return out
}

// literalFragment extracts a plantable byte string: literals pass
// through, bounded repetitions expand to their minimum, anchors drop,
// metacharacters collapse.
func literalFragment(pattern string, r *rand.Rand) []byte {
	var out []byte
	i := 0
	for i < len(pattern) {
		c := pattern[i]
		switch c {
		case '{':
			j := strings.IndexByte(pattern[i:], '}')
			if j < 0 {
				return out
			}
			var lo int
			fmt.Sscanf(pattern[i+1:i+j], "%d", &lo)
			if len(out) > 0 && lo > 1 {
				last := out[len(out)-1]
				for k := 1; k < lo && k < 400; k++ {
					out = append(out, last)
				}
			}
			i += j + 1
		case '^', '$':
			i++
		case '(', ')', '|', '*', '+', '?', '[', ']', '.':
			// Stop at structural metacharacters: the fragment up to here
			// is still a useful prefix to plant.
			return out
		default:
			out = append(out, c)
			i++
		}
	}
	return out
}
