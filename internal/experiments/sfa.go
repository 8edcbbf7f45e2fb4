package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/refmatch"
)

// sfaRounds is how many times each configuration sweeps the input.
const sfaRounds = 4

// SFABench benchmarks the data-parallel single-stream scan (the
// Simultaneous-FA engine) against the serial scan on a DFA-eligible
// ruleset, across 1/2/4/8 workers. Two speedup columns are reported:
//
//   - wall: measured end-to-end, which only exceeds 1 when the host has
//     idle cores to fan out to (CI runners do; a GOMAXPROCS=1 container
//     does not);
//   - critical-path: serial wall over the modeled parallel lower bound
//     (slowest phase-1 chunk + join + slowest phase-2 replay + merge)
//     from refmatch.ParallelStats, which is host-independent and is what
//     the wall speedup converges to with enough cores.
//
// A final row exercises the serial fallback: an NBVA-engine ruleset is
// parallel-ineligible, and the row records its typed reason. `rapbench
// -exp sfa -json DIR` archives the table as BENCH_sfa.json.
func SFABench(cfg Config) (*metrics.Table, error) {
	cfg.setDefaults()
	// Chunk-function scans only pay off when chunks dwarf the per-chunk
	// fixed costs; keep the sweep at least 4 MiB regardless of the global
	// default input length.
	n := cfg.InputLen
	if n < 4<<20 {
		n = 4 << 20
	}

	// DFA-eligible ruleset (plus windowed riders): general patterns with
	// small subset constructions, the shape the SFA union is built for.
	patterns := []string{
		"abc[0-9]*xyz",
		"key[a-z]*end",
		"ab+cd",
		"a(bc|de)*f",
		"[a-d]key[e-h]",
		"foo.?bar",
	}
	m, err := refmatch.Compile(context.Background(), patterns, refmatch.Options{})
	if err != nil {
		return nil, err
	}
	if err := m.Parallelizable(); err != nil {
		return nil, fmt.Errorf("sfa: ruleset unexpectedly ineligible: %w", err)
	}

	// Input: random noise over the rules' alphabet with ~1 planted match
	// per 8 KiB.
	rng := rand.New(rand.NewSource(cfg.Seed))
	alpha := []byte("mnopqrstuvw 0123")
	input := make([]byte, n)
	for i := range input {
		input[i] = alpha[rng.Intn(len(alpha))]
	}
	plants := []string{"abc42xyz", "keyqqend", "abbbcd", "abcdebcf", "akeye", "foobar"}
	for p, k := 4096, 0; p+16 < len(input); p, k = p+8192, k+1 {
		copy(input[p:], plants[k%len(plants)])
	}

	// Differential guard: byte-exact agreement before anything is timed.
	serialMatches := m.Scan(input)
	sess := m.NewSession()
	parMatches, err := sess.ScanParallel(context.Background(), input, 4)
	if err != nil {
		return nil, err
	}
	if len(parMatches) != len(serialMatches) {
		return nil, fmt.Errorf("sfa: parallel found %d matches, serial %d", len(parMatches), len(serialMatches))
	}

	serialSweep := func() time.Duration {
		start := time.Now()
		for r := 0; r < sfaRounds; r++ {
			m.Count(input)
		}
		return time.Since(start)
	}
	serialSweep() // warm
	serialWall := serialSweep()
	serialPerRound := serialWall / sfaRounds

	mbps := func(wall time.Duration) float64 {
		return float64(sfaRounds) * float64(len(input)) / 1e6 / wall.Seconds()
	}

	t := &metrics.Table{
		Name: "Data-parallel single-stream scan: Simultaneous-FA vs serial",
		Header: []string{"Config", "Workers", "MB/s", "Wall speedup",
			"Critical-path speedup", "Chunks", "Replay bytes", "Join µs"},
	}
	t.AddRow("serial", 1, mbps(serialWall), 1.0, 1.0, 1, 0, 0.0)

	for _, workers := range []int{1, 2, 4, 8} {
		var wall time.Duration
		var st refmatch.ParallelStats
		start := time.Now()
		for r := 0; r < sfaRounds; r++ {
			if _, err := sess.ScanParallel(context.Background(), input, workers); err != nil {
				return nil, err
			}
		}
		wall = time.Since(start)
		st = sess.ParallelStats()
		critical := time.Duration(st.CriticalPathNS())
		critSpeedup := 0.0
		if critical > 0 {
			critSpeedup = float64(serialPerRound) / float64(critical)
		}
		t.AddRow(fmt.Sprintf("parallel (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)), workers,
			mbps(wall), float64(serialWall)/float64(wall), critSpeedup,
			st.Chunks, st.ReplayBytes, float64(st.JoinNS)/1e3)
	}

	// Serial fallback: an NBVA-engine ruleset cannot run data-parallel;
	// the typed reason is what the service counts in /stats.
	nb, err := refmatch.Compile(context.Background(), []string{"x[ab]{40,60}y"}, refmatch.Options{})
	if err != nil {
		return nil, err
	}
	_, ferr := nb.NewSession().ScanParallel(context.Background(), input, 4)
	if !errors.Is(ferr, refmatch.ErrNotParallelizable) {
		return nil, fmt.Errorf("sfa: NBVA ruleset did not fall back: %v", ferr)
	}
	t.AddRow("fallback: "+refmatch.FallbackReason(ferr), "-", "-", "-", "-", "-", "-", "-")

	if err := cfg.saveTable(t, "sfa_bench.csv"); err != nil {
		return nil, err
	}
	return t, nil
}
