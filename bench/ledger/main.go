// Command ledger is the repository's layered performance ledger: five
// pinned workloads driven through the served API (pkg/rapclient over
// loopback TCP into service.Handler / cluster.Node.Handler, all in one
// process), every response checked against a reference-NFA oracle, seven
// end-to-end metrics per workload from a timed untraced run, and one row
// per layer from a traced replay of the same inputs. See README.md.
//
//	go run ./bench/ledger                       # all five workloads
//	go run ./bench/ledger -workload small_dense # one
//	go run ./bench/ledger -repeat 2             # twice, and do they agree?
//
// A harness runs bench/ledger/run.sh --workload W --seed N --seconds S
// --trace 0|1 and parses the last line of stdout.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the timed run's length; BENCHMARK.json's run_seconds
// says the same.
const defaultSeconds = 18

// setupReps is how many times set-up is performed per run; setup_s is
// the median, the last one serves the timed run. Each is timed with the
// machine's stolen time taken out: set-up is one chain of dependent steps,
// so whichever vCPU the hypervisor takes while it has work, set-up waits.
const setupReps = 5

// Open-loop schedule criteria: the generator's lateness at the 99th
// percentile and how far the achieved rate may stray from the spec's.
const (
	lateLimitMS   = 1.0
	rateTolerance = 0.01
)

// result is one workload's run.
type result struct {
	Workload    string             `json:"workload"`
	Why         string             `json:"why"`
	Seed        int64              `json:"seed"`
	RunSeconds  float64            `json:"run_seconds"`
	ReplayOps   int                `json:"replay_ops"`
	InputSHA256 string             `json:"input_sha256"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Samples     map[string]int     `json:"samples"`
	Metrics     map[string]float64 `json:"metrics"`
	spans       []span
}

// runWorkload generates the inputs and their oracle, sets the system up
// (setupReps times), warms it, runs the timed load and, if traced,
// replays the inputs layer by layer.
func runWorkload(s spec, seed int64, seconds float64, traced bool) (*result, error) {
	goroutines := runtime.NumGoroutine()
	in, err := generate(s, seed)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: s.name, Why: s.why, Seed: seed, RunSeconds: seconds,
		InputSHA256: in.sha256, Metrics: map[string]float64{}}

	var t *target
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if t != nil {
			t.stop()
		}
		t0, stolen0 := time.Now(), stolenSeconds()
		if t, err = setUp(s, in); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		for _, l := range drive(s, in, t, limit{ops: s.warmOps}) {
			if bad := l.refused + l.errored + l.wrong; bad > 0 {
				t.stop()
				return nil, fmt.Errorf("%s: warm-up: %d of %d ops failed", s.name, bad, l.attempted)
			}
		}
		wall := time.Since(t0).Seconds()
		setups = append(setups, max(wall-(stolenSeconds()-stolen0), wall/10)) // stolen is summed over vCPUs: it can pass wall
	}
	timedRun(s, in, t, time.Duration(seconds*float64(time.Second)), r)
	t.stop()
	r.Metrics["setup_s"] = median(setups)

	if traced {
		tr, err := tracedReplay(s, in, r.Metrics)
		if err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", s.name, err)
		}
		r.spans, r.ReplayOps = tr.spans, s.replay
	}

	// Everything is stopped; whatever is still running was leaked.
	for wait := 0; runtime.NumGoroutine() > goroutines && wait < 200; wait++ {
		time.Sleep(5 * time.Millisecond)
	}
	r.Metrics["proc.goroutines_leaked"] = float64(max(runtime.NumGoroutine()-goroutines, 0))
	return r, nil
}

// runChild re-executes this binary for one workload, so that set-up
// time, peak RSS and the allocator start from a fresh process. The
// child's stdout carries its result as one JSON line.
func runChild(name string, seed int64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", map[bool]string{true: "1", false: "0"}[traced])
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: child: %w", name, err)
	}
	var w childResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &w); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", name, err)
	}
	w.Result.spans = w.Spans
	return w.Result, nil
}

// childResult is what a child process prints for its parent.
type childResult struct {
	Result *result `json:"result"`
	Spans  []span  `json:"spans"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five, each in a fresh child process)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same bodies")
		seconds  = flag.Float64("seconds", defaultSeconds, "harness: length of the timed run (BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 1, "harness: 1 replays the inputs layer by layer after the timed run and ends on the per-layer metrics, 0 skips the replay and ends on the end-to-end ones")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times and check the runs agree within each bound")
		jsonOut  = flag.String("json", "", "also write environment, inputs and every metric to this file")
		traceOut = flag.String("trace-out", "", "write the replay's spans to this file, one JSON object per line")
		child    = flag.Bool("child", false, "internal: print the result as one JSON line")
	)
	flag.Parse()
	traced := *trace == 1
	if *trace != 0 && *trace != 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	one, ok := findSpec(*workload)
	if (*workload != "" || *child) && !ok {
		fmt.Fprintf(os.Stderr, "ledger: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	run := func() error {
		if *child {
			r, err := runWorkload(one, *seed, *seconds, traced)
			if err != nil {
				return err
			}
			return json.NewEncoder(os.Stdout).Encode(childResult{r, r.spans})
		}
		todo := specs
		if ok {
			todo = []spec{one}
		}
		var rounds [][]*result
		var failed int64
		for round := 0; round < max(*repeat, 1); round++ {
			var results []*result
			for _, s := range todo {
				fmt.Fprintf(os.Stderr, "ledger: %s (seed %d, %gs timed)\n", s.name, *seed, *seconds)
				var r *result
				var err error
				if ok && *repeat == 1 {
					r, err = runWorkload(s, *seed, *seconds, traced)
				} else {
					r, err = runChild(s.name, *seed, *seconds, traced)
				}
				if err != nil {
					return err
				}
				results = append(results, r)
				failed += r.Failed
			}
			printLedger(results, traced)
			rounds = append(rounds, results)
		}
		last := rounds[len(rounds)-1]
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, rounds); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			if err := writeSpans(*traceOut, last); err != nil {
				return err
			}
		}
		agree := *repeat < 2 || printAgreement(rounds)
		if ok {
			printDriverLine(last[0], traced)
		}
		switch {
		case failed > 0:
			return fmt.Errorf("%d ops failed, were refused or answered with a wrong match set", failed)
		case !agree:
			return fmt.Errorf("repeated runs disagree beyond a metric's bound")
		}
		return nil
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

// printLedger prints one table per metric class: a row per metric, a
// column per workload.
func printLedger(results []*result, traced bool) {
	table := func(title string, defs []metricDef) {
		fmt.Printf("\n%s\n%-32s %-6s", title, "metric", "unit")
		for _, r := range results {
			fmt.Printf(" %14s", r.Workload)
		}
		fmt.Println()
		for _, d := range defs {
			fmt.Printf("%-32s %-6s", d.Name, d.Unit)
			for _, r := range results {
				fmt.Printf(" %14s", formatValue(r.Metrics[d.Name]))
			}
			if d.Bound > 0 {
				fmt.Printf("   bound %.0f%%", 100*d.Bound)
			}
			fmt.Println()
		}
	}
	table("end to end (timed run, tracing off)", append(endToEnd[:len(endToEnd):len(endToEnd)], ungated...))
	for _, k := range []string{"ops", "windows", "fit_windows"} {
		fmt.Printf("%-39s", "samples: "+k)
		for _, r := range results {
			fmt.Printf(" %14d", r.Samples[k])
		}
		fmt.Println()
	}
	if traced {
		table("per layer (traced replay and served-run counters)", perLayer)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("%-14s seed %d  %gs timed  %d replay ops  attempted %d failed %d  inputs sha256 %s\n",
			r.Workload, r.Seed, r.RunSeconds, r.ReplayOps, r.Attempted, r.Failed, r.InputSHA256)
		if s, _ := findSpec(r.Workload); s.shape == openLoop {
			late, rate := r.Metrics["client.late_p99_ms"], r.Metrics["client.ops_per_s"]
			kept := late < lateLimitMS && math.Abs(rate-s.rate) <= rateTolerance*s.rate
			fmt.Printf("%-14s schedule %s: generator late_p99 %s ms (limit %g), achieved %s of %g req/s (within %g%%)\n", r.Workload,
				map[bool]string{true: "kept", false: "NOT KEPT"}[kept], formatValue(late), lateLimitMS, formatValue(rate), s.rate, 100*rateTolerance)
		}
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e12:
		return fmt.Sprintf("%.0f", v)
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// printAgreement compares the rounds pair by pair of (end-to-end metric,
// workload): the worst value may trail the best by at most the bound.
func printAgreement(rounds [][]*result) bool {
	fmt.Printf("\nrepeat agreement (worst vs best of %d runs)\n", len(rounds))
	all := true
	for i, r0 := range rounds[0] {
		for _, d := range endToEnd {
			var vals []float64
			var shown []string
			for _, results := range rounds {
				vals = append(vals, results[i].Metrics[d.Name])
				shown = append(shown, formatValue(results[i].Metrics[d.Name]))
			}
			sort.Float64s(vals)
			lo, hi := vals[0], vals[len(vals)-1]
			ok := hi-lo <= d.Bound*lo
			if d.Name == "setup_s" { // a tenth of a second either way is scheduling, not set-up
				ok = ok || hi-lo <= 0.1
			}
			all = all && ok
			fmt.Printf("%-14s %-14s %-24s spread %5.1f%%  bound %2.0f%%  %s\n", r0.Workload, d.Name,
				strings.Join(shown, " "), 100*(hi-lo)/lo, 100*d.Bound, map[bool]string{true: "agree", false: "DISAGREE"}[ok])
		}
	}
	return all
}

// printDriverLine prints the one-object summary a harness parses: the
// last line of stdout.
func printDriverLine(r *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	defs := endToEnd
	if traced {
		defs = unbounded()
	}
	for _, d := range defs {
		out.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

func writeJSON(path string, rounds [][]*result) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	doc := struct {
		NumCPU     int         `json:"nproc"`
		GOMAXPROCS int         `json:"gomaxprocs"`
		GoVersion  string      `json:"go_version"`
		GitCommit  string      `json:"git_commit"`
		Clients    int         `json:"clients"`
		SetupReps  int         `json:"setup_reps"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
		Rounds     [][]*result `json:"rounds"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, numClients(), setupReps, endToEnd, perLayer, rounds}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSpans(path string, results []*result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range results {
		for _, sp := range r.spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
