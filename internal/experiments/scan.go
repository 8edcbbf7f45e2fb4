package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/refmatch"
)

// scanRounds is how many times each scanner sweeps the input; a few
// rounds amortize timer noise while keeping the CI smoke run fast.
const scanRounds = 6

// scanLitCounts spans the fingerprint tier's eligibility range (2–32
// multi-byte literals); scanSizeFactors multiply Config.InputLen into the
// input-size axis of the matrix.
var (
	scanLitCounts   = []int{2, 8, 24, 32}
	scanSizeFactors = []int{1, 4}
)

// ScanBench is the fast-path scan engine benchmark, a matrix over literal
// counts (the 2–32 fingerprint-tier range) × input sizes. Each cell
// compiles one literal-rich pattern set three ways and sweeps the same
// sparse-match input:
//
//   - teddy:  the production tier choice — the word-at-a-time fingerprint
//     scanner gates the match automata (prefilter.NewSet picks TierTeddy
//     for every cell in the matrix);
//   - ac:     the same literal union forced onto the Aho-Corasick DFA
//     (prefilter.NewSetAC), the tier the fingerprint scanner replaced;
//   - always-on: no prefilter at all, every byte stepped by the automata.
//
// Teddy and AC throughputs are measured on the full streaming prefilter
// (literal scan + window delivery) with the end-to-end match set verified
// identical across all three paths first. `rapbench -exp scan -json DIR`
// archives the matrix as BENCH_scan.json; CI's bench-smoke job guards the
// Teddy/AC column against regressions (rapbench -guard).
func ScanBench(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()

	t := &metrics.Table{
		Name:   "Fast-path scan matrix: fingerprint (teddy) vs Aho-Corasick vs always-on",
		Header: []string{"Literals", "InputKB", "Tier", "Teddy MB/s", "AC MB/s", "AlwaysOn MB/s", "Teddy/AC", "Skip %"},
	}
	for _, nl := range scanLitCounts {
		// One distinct multi-byte mandatory literal per pattern, inside
		// non-literal context so the automata stay non-trivial. The literal
		// union (nl literals of "key%02d") keeps the set in the teddy tier.
		var patterns []string
		var lits [][]byte
		window := 0
		for i := 0; i < nl; i++ {
			patterns = append(patterns, fmt.Sprintf(".key%02d.", i))
			lits = append(lits, []byte(fmt.Sprintf("key%02d", i)))
			window = 9 // 7 literal states + 2 dot context states
		}
		m, err := refmatch.Compile(context.Background(), patterns, refmatch.Options{})
		if err != nil {
			return nil, err
		}
		plain, err := refmatch.Compile(context.Background(), patterns, refmatch.Options{DisablePrefilter: true})
		if err != nil {
			return nil, err
		}
		if tier := m.PrefilterTier(); tier != "teddy" {
			return nil, fmt.Errorf("scan: %d literals compiled to tier %q, want teddy", nl, tier)
		}
		teddySet, err := prefilter.NewSet(lits, window)
		if err != nil {
			return nil, err
		}
		acSet, err := prefilter.NewSetAC(lits, window)
		if err != nil {
			return nil, err
		}

		for _, sf := range scanSizeFactors {
			size := cfg.InputLen * sf
			input := makeScanInput(size, nl, cfg.Seed)

			// Differential guard: all three paths must agree before timing.
			nTeddy := len(m.Scan(input))
			if nPlain := len(plain.Scan(input)); nTeddy != nPlain {
				return nil, fmt.Errorf("scan: %d lits size %d: prefiltered found %d matches, always-on %d",
					nl, size, nTeddy, nPlain)
			}
			if ht, ha := streamHits(teddySet, input), streamHits(acSet, input); ht != ha {
				return nil, fmt.Errorf("scan: %d lits size %d: teddy saw %d literal hits, ac %d",
					nl, size, ht, ha)
			}

			teddyWall := sweepStream(teddySet, input)
			acWall := sweepStream(acSet, input)
			plainWall, _ := sweepMatcher(plain, input)
			_, skip := sweepMatcher(m, input)

			mbps := func(wall time.Duration) float64 {
				return float64(scanRounds) * float64(len(input)) / 1e6 / wall.Seconds()
			}
			t.AddRow(nl, size/1024, "teddy",
				mbps(teddyWall), mbps(acWall), mbps(plainWall),
				metrics.Ratio(mbps(teddyWall), mbps(acWall)), 100*skip)
		}
	}
	if err := cfg.saveTable(t, "scan_bench.csv"); err != nil {
		return nil, err
	}
	return t, nil
}

// makeScanInput builds size bytes of 'i'..'z' noise (missing every literal
// byte pattern) with one planted literal occurrence per 4 KiB.
func makeScanInput(size, nl int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	input := make([]byte, size)
	for i := range input {
		input[i] = byte('i' + rng.Intn(18))
	}
	planted := 0
	for p := 2048; p+12 < len(input); p += 4096 {
		copy(input[p:], fmt.Sprintf("key%02d", planted%nl))
		planted++
	}
	return input
}

// sweepStream times scanRounds full streaming prefilter passes (literal
// scan + window delivery to a no-op automaton) over input.
func sweepStream(set *prefilter.Set, input []byte) time.Duration {
	st := set.NewStream()
	noop := func(int, []byte) {}
	reset := func() {}
	st.Scan(input, noop, reset) // warm
	st.Reset()
	start := time.Now()
	for r := 0; r < scanRounds; r++ {
		st.Scan(input, noop, reset)
		st.Reset()
	}
	return time.Since(start)
}

// streamHits counts literal hits one streaming pass sees.
func streamHits(set *prefilter.Set, input []byte) int64 {
	st := set.NewStream()
	st.Scan(input, func(int, []byte) {}, func() {})
	return st.Stats().LiteralHits
}

// sweepMatcher times scanRounds end-to-end Count sweeps and returns the
// matcher's skip ratio from a session-level pass.
func sweepMatcher(m *refmatch.Matcher, input []byte) (time.Duration, float64) {
	m.Count(input) // warm
	start := time.Now()
	for r := 0; r < scanRounds; r++ {
		m.Count(input)
	}
	wall := time.Since(start)
	sess := m.NewSession()
	sess.Feed(input)
	st := sess.PrefilterStats()
	skip := 0.0
	if total := st.ScannedBytes + st.SkippedBytes; total > 0 {
		skip = float64(st.SkippedBytes) / float64(total)
	}
	return wall, skip
}

// ScanHeadline is the figure the regression guard compares run over run:
// the median of the named ratio column ("4.70x" cells) over the matrix —
// two loops timed in the same row, so it carries across machines where an
// absolute MB/s does not.
func ScanHeadline(t *metrics.Table, column string) (float64, error) {
	col := -1
	for i, h := range t.Header {
		if h == column {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("scan: no column %q in table %q", column, t.Name)
	}
	var vals []float64
	for _, row := range t.Rows {
		if col >= len(row) {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "x"), 64); err == nil {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("scan: column %q has no numeric values", column)
	}
	sort.Float64s(vals)
	return (vals[(len(vals)-1)/2] + vals[len(vals)/2]) / 2, nil
}
