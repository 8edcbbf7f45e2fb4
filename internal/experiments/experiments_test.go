package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// small returns a config fast enough for unit tests.
func small() Config { return Config{Scale: 0.08, Seed: 3, InputLen: 3000} }

func TestFig1(t *testing.T) {
	tb, err := Fig1(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Shares per row sum to ~100.
	for _, r := range tb.Rows {
		sum := 0.0
		for _, c := range r[2:] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				t.Fatalf("bad cell %q", c)
			}
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s shares sum to %v", r[0], sum)
		}
	}
}

func TestFig10a(t *testing.T) {
	tb, err := Fig10a(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	chosen := 0
	for _, r := range tb.Rows {
		if r[5] == "*" {
			chosen++
		}
		// Area normalized to depth 4 never exceeds 1 (+epsilon).
		a, _ := strconv.ParseFloat(r[3], 64)
		if a > 1.001 {
			t.Errorf("%s depth %s area norm %v > 1", r[0], r[1], a)
		}
	}
	if chosen == 0 {
		t.Error("no chosen depth marked")
	}
}

func TestFig10b(t *testing.T) {
	tb, err := Fig10b(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestTable2Shapes(t *testing.T) {
	tb, err := Table2(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	f := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("cell %q", s)
		}
		return v
	}
	// The paper itself shows NBVA ≈ NFA on RegexLib ("the ratio and size
	// of BVs are both low"); the strict win is asserted on the BV-heavy
	// benchmarks only.
	bvHeavy := map[string]bool{"Snort": true, "Suricata": true, "Yara": true, "ClamAV": true}
	for _, r := range tb.Rows {
		if strings.HasPrefix(r[0], "Average") || !bvHeavy[r[0]] {
			continue
		}
		eNBVA, eNFA := f(r[1]), f(r[2])
		aNBVA, aNFA, aCA := f(r[6]), f(r[7]), f(r[10])
		if eNBVA >= eNFA {
			t.Errorf("%s: NBVA energy %v >= NFA %v", r[0], eNBVA, eNFA)
		}
		if aNBVA >= aNFA {
			t.Errorf("%s: NBVA area %v >= NFA %v", r[0], aNBVA, aNFA)
		}
		if aCA <= aNFA*0.9 {
			t.Errorf("%s: CA area %v should exceed RAP-NFA-ish %v", r[0], aCA, aNFA)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	tb, err := Table3(small())
	if err != nil {
		t.Fatal(err)
	}
	f := func(s string) float64 {
		v, _ := strconv.ParseFloat(s, 64)
		return v
	}
	for _, r := range tb.Rows {
		if strings.HasPrefix(r[0], "Average") {
			continue
		}
		eLNFA, eNFA := f(r[1]), f(r[2])
		if eLNFA >= eNFA {
			t.Errorf("%s: LNFA energy %v >= NFA %v", r[0], eLNFA, eNFA)
		}
		tLNFA, tNFA := f(r[11]), f(r[12])
		if tLNFA != tNFA {
			t.Errorf("%s: LNFA throughput %v != NFA %v", r[0], tLNFA, tNFA)
		}
	}
}

func TestFig11SharesSum(t *testing.T) {
	tb, err := Fig11(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	sumPct := func(col int) float64 {
		s := 0.0
		for _, r := range tb.Rows {
			v, _ := strconv.ParseFloat(r[col], 64)
			s += v
		}
		return s
	}
	for _, col := range []int{2, 4, 6} {
		if s := sumPct(col); s < 99 || s > 101 {
			t.Errorf("column %d sums to %v", col, s)
		}
	}
}

func TestFig12(t *testing.T) {
	tb, err := Fig12(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7*4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Every dataset leads with the RAP row.
	if tb.Rows[0][1] != "RAP" {
		t.Errorf("first row arch = %s", tb.Rows[0][1])
	}
}

func TestFig13EfficiencyGaps(t *testing.T) {
	cfg := small()
	tb, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		gpuGap := strings.TrimSuffix(r[7], "x")
		v, err := strconv.ParseFloat(gpuGap, 64)
		if err != nil {
			t.Fatalf("cell %q", r[7])
		}
		if v < 20 {
			t.Errorf("%s: RAP/GPU efficiency gap only %vx", r[0], v)
		}
		cpuGap := strings.TrimSuffix(r[8], "x")
		c, _ := strconv.ParseFloat(cpuGap, 64)
		if c < 100 {
			t.Errorf("%s: RAP/CPU efficiency gap only %vx", r[0], c)
		}
	}
}

func TestTable4(t *testing.T) {
	tb, err := Table4(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		ratio := strings.TrimSuffix(r[5], "x")
		v, _ := strconv.ParseFloat(ratio, 64)
		if v < 5 {
			t.Errorf("%s: throughput ratio %vx too low", r[0], v)
		}
	}
}

func TestRunDispatchAndSave(t *testing.T) {
	cfg := small()
	cfg.OutDir = t.TempDir()
	if _, err := Run("fig1", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "fig1.csv")); err != nil {
		t.Error("fig1.csv not written")
	}
	if _, err := Run("nope", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAblation(t *testing.T) {
	tb, err := Ablation(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no ablation rows")
	}
	kinds := map[string]bool{}
	for _, r := range tb.Rows {
		kinds[r[0]] = true
	}
	for _, k := range []string{"buffering", "mode-removal", "unfold-threshold"} {
		if !kinds[k] {
			t.Errorf("missing ablation kind %q", k)
		}
	}
	// Buffering rows come in triples with lockstep <= windowed <= unlimited.
	var lock, win, unl float64
	for _, r := range tb.Rows {
		if r[0] != "buffering" {
			continue
		}
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("cell %q", r[3])
		}
		switch r[2] {
		case "lockstep (none)":
			lock = v
		case "two-level (128+8)":
			win = v
		case "unlimited":
			unl = v
			if lock > win+1e-9 || win > unl+1e-9 {
				t.Errorf("%s: buffering order violated: %v %v %v", r[1], lock, win, unl)
			}
		}
	}
}

func TestCharacterize(t *testing.T) {
	tb, err := Characterize(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// ClamAV's unfolded blowup must dwarf its written size.
	for _, r := range tb.Rows {
		if r[0] != "ClamAV" {
			continue
		}
		written, _ := strconv.ParseFloat(r[2], 64)
		unfolded, _ := strconv.ParseFloat(r[3], 64)
		if unfolded < 3*written {
			t.Errorf("ClamAV unfolded %v not >> written %v", unfolded, written)
		}
	}
	// Kernel reach: a dataset's linear patterns, where it has any, all sit
	// behind a prefilter on a named windowed kernel, and none of its
	// patterns falls to a per-byte fallback — the finding the scan-path fork audit
	// (EXPERIMENTS.md) records. A dataset that starts reaching "step" is
	// news for that audit, not a failure of the scan path.
	for _, r := range tb.Rows {
		var word, step, dfa int
		if _, err := fmt.Sscanf(r[12], "%d/%d/%d", &word, &step, &dfa); err != nil {
			t.Fatalf("%s: engines cell %q: %v", r[0], r[12], err)
		}
		if strings.Contains(r[10], "always-on") || (r[10] == "-") != (r[11] == "-") {
			t.Errorf("%s: linear patterns on %q behind prefilter tier %q", r[0], r[10], r[11])
		}
		if step != 0 || word+dfa == 0 {
			t.Errorf("%s: word64/step/dfa-table = %s", r[0], r[12])
		}
	}
}

func TestCharacterizeUtilization(t *testing.T) {
	cfg := small()
	cfg.Scale = 0.3 // utilization needs more than a tile or two
	tb, err := Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		u, err := strconv.ParseFloat(r[9], 64)
		if err != nil {
			t.Fatalf("cell %q", r[9])
		}
		if u < 50 {
			t.Errorf("%s: utilization %.1f%% far below the §4.3 target", r[0], u)
		}
	}
}

func TestFlows(t *testing.T) {
	tb, err := Flows(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Throughput roughly never increases with flow count (small inputs
	// are noisy: per-flow trigger patterns shift, so allow slack), and
	// the single-flow row has zero switch-energy share.
	var prev float64
	var prevDataset string
	for _, r := range tb.Rows {
		tput, err := strconv.ParseFloat(r[2], 64)
		if err != nil {
			t.Fatalf("cell %q", r[2])
		}
		if r[0] == prevDataset && tput > prev*1.5 {
			t.Errorf("%s flows %s: throughput rose %v -> %v", r[0], r[1], prev, tput)
		}
		if r[1] == "1" {
			share, _ := strconv.ParseFloat(r[4], 64)
			if share != 0 {
				t.Errorf("%s: single flow has switch share %v", r[0], share)
			}
		}
		prev, prevDataset = tput, r[0]
	}
}

// TestScanHeadline: the guard's figure is the median of a ratio column,
// so one cell a noisy neighbour lands on does not move it.
func TestScanHeadline(t *testing.T) {
	tab := &metrics.Table{Header: []string{"Literals", "Teddy/AC"}}
	for _, cell := range []string{"16.2x", "4.5x", "17.0x", "16.8x", "n/a"} {
		tab.AddRow(2, cell)
	}
	got, err := ScanHeadline(tab, "Teddy/AC")
	if err != nil || got != 16.5 {
		t.Fatalf("headline = %v, %v; want the median 16.5", got, err)
	}
	if _, err := ScanHeadline(tab, "Teddy MB/s"); err == nil {
		t.Fatal("a missing column gave no error")
	}
}

// TestSelectGuardNeedsScan: -guard compares the scan headline, so every
// flag combination that would run without scan is refused before anything
// runs — not exited 0 with nothing compared.
func TestSelectGuardNeedsScan(t *testing.T) {
	for _, tc := range []struct {
		exp     string
		guarded bool
		want    int // experiments selected; 0 = usage error
	}{
		{"scan", true, 1},
		{"all", true, len(Names)},
		{"sfa", true, 0},
		{"table2", true, 0},
		{"scna", true, 0},
		{"", true, 0},
		{"scna", false, 1}, // unguarded, Run reports the unknown name
		{"sfa", false, 1},
		{"scan", false, 1},
		{"all", false, len(Names)},
	} {
		names, err := Select(tc.exp, tc.guarded)
		if (err != nil) != (tc.want == 0) || len(names) != tc.want {
			t.Errorf("Select(%q, guarded=%v) = %v, %v; want %d experiments", tc.exp, tc.guarded, names, err, tc.want)
		}
	}
}
