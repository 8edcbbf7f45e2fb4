// Command rapbench regenerates the paper's evaluation tables and figures
// (§5) on the synthetic workloads. It mirrors the artifact's
// main_gap.py interface:
//
//	rapbench -exp table2                 # one experiment
//	rapbench -exp all -out ./result      # everything, with CSV outputs
//	rapbench -exp fig12 -scale 0.5 -input 50000
//	rapbench -exp scan -guard bench/BENCH_scan.json  # fast-path matrix, ratio-guarded
//	rapbench -exp sfa                    # data-parallel scan vs serial speedup
//
// Experiments: fig1, fig10a, fig10b, table2, table3, fig11, fig12, fig13,
// table4, ablation, characterize, flows, reconfig, scan, sfa, all. The
// reconfig experiment is beyond-paper: it prices live ruleset updates
// (delta bitstream + tile quiesce/reload) against full redeployment; the
// scan experiment measures the fast-path scan engine (mandatory-literal
// prefilter + zero-alloc kernels) against the always-on scan path on a
// literal-bearing workload; the sfa experiment measures
// refmatch.Session.ScanParallel against the serial scan on an
// SFA-eligible ruleset. The serving stack (service, QoS, health,
// cluster, compile pipeline) is measured by the oracle-checked ledger
// under bench/ledger, not here.
//
// -json DIR additionally writes one BENCH_<exp>.json per experiment —
// result table plus config, wall time and build identity. -guard FILE
// compares the scan experiment's headline against a committed
// BENCH_scan.json; it is a usage error unless scan is in the run list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// benchRecord is the BENCH_<exp>.json schema.
type benchRecord struct {
	Name            string              `json:"name"`
	Timestamp       string              `json:"timestamp"`
	DurationSeconds float64             `json:"duration_seconds"`
	GOOS            string              `json:"goos"`
	GOARCH          string              `json:"goarch"`
	NumCPU          int                 `json:"num_cpu"`
	Build           telemetry.BuildInfo `json:"build"`
	Config          experiments.Config  `json:"config"`
	Table           *metrics.Table      `json:"table"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(experiments.Names, ", ")+", or all")
	scale := flag.Float64("scale", 1.0, "workload scale factor (pattern count multiplier)")
	seed := flag.Int64("seed", 1, "workload generation seed")
	inputLen := flag.Int("input", 100000, "input stream length in characters")
	out := flag.String("out", "", "directory for CSV outputs (optional)")
	jsonDir := flag.String("json", "", "directory for machine-readable BENCH_<exp>.json records (optional)")
	parallel := flag.Bool("parallel", true, "run per-dataset work concurrently")
	guard := flag.String("guard", "", "baseline BENCH_scan.json: exit non-zero if the scan headline (median Teddy/AC ratio) drops below half of it")
	flag.Parse()
	if *inputLen < 0 {
		fmt.Fprintf(os.Stderr, "rapbench: -input %d must not be negative\n", *inputLen)
		os.Exit(2)
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, InputLen: *inputLen, OutDir: *out, Parallel: *parallel}

	names, err := experiments.Select(*exp, *guard != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapbench: %v\n", err)
		os.Exit(2)
	}
	for _, name := range names {
		start := time.Now()
		t, err := experiments.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Println(t.String())
		fmt.Printf("(%s in %.1fs)\n\n", name, elapsed.Seconds())
		if *guard != "" && name == "scan" {
			if err := guardScan(t, *guard); err != nil {
				fmt.Fprintf(os.Stderr, "rapbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *jsonDir != "" {
			rec := benchRecord{
				Name:            name,
				Timestamp:       start.UTC().Format(time.RFC3339),
				DurationSeconds: elapsed.Seconds(),
				GOOS:            runtime.GOOS,
				GOARCH:          runtime.GOARCH,
				NumCPU:          runtime.NumCPU(),
				Build:           telemetry.Build(),
				Config:          cfg,
				Table:           t,
			}
			path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
			if err := metrics.SaveJSON(path, rec); err != nil {
				fmt.Fprintf(os.Stderr, "rapbench: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}
	if *out != "" {
		fmt.Printf("CSV outputs written to %s\n", *out)
	}
	if *jsonDir != "" {
		fmt.Printf("BENCH_*.json records written to %s\n", *jsonDir)
	}
}

// guardTolerance is how far the scan headline may fall below the
// committed baseline before the guard fails the run. A healthy run on a
// busy shared runner read 0.74 of it and a kernel back to one load per
// byte reads 0.27, so half the baseline separates the two.
const guardTolerance = 0.50

// guardScan compares the fresh scan table's headline (the median
// Teddy/AC ratio) against the committed baseline record and fails on a
// regression beyond the tolerance.
func guardScan(t *metrics.Table, baselinePath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("guard: %w", err)
	}
	var base benchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("guard: %s: %w", baselinePath, err)
	}
	const column = "Teddy/AC"
	want, err := experiments.ScanHeadline(base.Table, column)
	if err != nil {
		return fmt.Errorf("guard: baseline: %w", err)
	}
	got, err := experiments.ScanHeadline(t, column)
	if err != nil {
		return fmt.Errorf("guard: current: %w", err)
	}
	if got < want*guardTolerance {
		return fmt.Errorf("guard: scan headline %.2fx teddy/AC is %.0f%% below the committed baseline %.2fx (tolerance %.0f%%)",
			got, 100*(1-got/want), want, 100*(1-guardTolerance))
	}
	fmt.Printf("guard: scan headline %.2fx teddy/AC vs baseline %.2fx — ok\n\n", got, want)
	return nil
}
