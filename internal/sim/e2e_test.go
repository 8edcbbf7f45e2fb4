package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/mapper"
	"repro/internal/refmatch"
	"repro/internal/workload"
)

// TestE2EAllArchitecturesAgree is the repository-wide consistency check
// (§5.2's Hyperscan methodology): for every synthetic benchmark, the RAP
// cycle simulator in its native mode mix, the all-NFA RAP configuration,
// CAMA, CA, BVAP, and the software reference matcher must report the
// exact same number of matches.
func TestE2EAllArchitecturesAgree(t *testing.T) {
	for _, name := range workload.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			d := workload.MustGenerate(name, 0.12, 77)
			input := d.Input(8000, 5)

			ref, err := refmatch.Compile(context.Background(), d.Patterns, refmatch.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(ref.Count(input))

			// RAP native.
			res := compile.Compile(d.Patterns, compile.Options{})
			if len(res.Errors) != 0 {
				t.Fatal(res.Errors[0])
			}
			p, err := mapper.Map(res, mapper.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rap, err := SimulateRAP(res, p, input)
			if err != nil {
				t.Fatal(err)
			}
			if rap.Matches != want {
				t.Errorf("RAP = %d, reference = %d", rap.Matches, want)
			}

			// All-NFA on RAP, CAMA, CA.
			resNFA := compile.Compile(d.Patterns, compile.Options{ModePolicy: compile.ForceNFA})
			if len(resNFA.Errors) != 0 {
				t.Fatal(resNFA.Errors[0])
			}
			pNFA, err := mapper.Map(resNFA, mapper.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rapNFA, err := SimulateRAP(resNFA, pNFA, input)
			if err != nil {
				t.Fatal(err)
			}
			if rapNFA.Matches != want {
				t.Errorf("RAP-NFA = %d, reference = %d", rapNFA.Matches, want)
			}
			for _, archName := range []string{"CAMA", "CA"} {
				rep, err := SimulateBaseline(archName, resNFA, pNFA, input)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Matches != want {
					t.Errorf("%s = %d, reference = %d", archName, rep.Matches, want)
				}
			}

			// BVAP.
			resBV := compile.Compile(d.Patterns, compile.Options{ModePolicy: compile.AllowNBVA})
			if len(resBV.Errors) != 0 {
				t.Fatal(resBV.Errors[0])
			}
			pBV, err := MapBVAP(resBV)
			if err != nil {
				t.Fatal(err)
			}
			bvap, err := SimulateBVAP(resBV, pBV, input)
			if err != nil {
				t.Fatal(err)
			}
			if bvap.Matches != want {
				t.Errorf("BVAP = %d, reference = %d", bvap.Matches, want)
			}
		})
	}
}

// TestE2EParameterSweepInvariance: matches must not depend on the
// hardware parameters (depth, bin size) — only energy/area/cycles may.
func TestE2EParameterSweepInvariance(t *testing.T) {
	d := workload.MustGenerate("Suricata", 0.12, 21)
	input := d.Input(6000, 9)
	res := compile.Compile(d.Patterns, compile.Options{})
	if len(res.Errors) != 0 {
		t.Fatal(res.Errors[0])
	}
	var want int64 = -1
	for _, depth := range []int{4, 8, 16, 32} {
		for _, bin := range []int{1, 8, 32} {
			p, err := mapper.Map(res, mapper.Options{Depth: depth, BinSize: bin})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := SimulateRAP(res, p, input)
			if err != nil {
				t.Fatal(err)
			}
			if want < 0 {
				want = rep.Matches
			} else if rep.Matches != want {
				t.Errorf("depth %d bin %d: matches %d != %d", depth, bin, rep.Matches, want)
			}
		}
	}
	if want <= 0 {
		t.Error("sweep found no matches at all")
	}
}

// TestE2EEnergyScalesWithInput: doubling the input roughly doubles the
// dynamic energy (within slack for planted-match placement variance) and
// never decreases it.
func TestE2EEnergyScalesWithInput(t *testing.T) {
	d := workload.MustGenerate("Snort", 0.12, 13)
	res := compile.Compile(d.Patterns, compile.Options{})
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shortRep, err := SimulateRAP(res, p, d.Input(4000, 2))
	if err != nil {
		t.Fatal(err)
	}
	longRep, err := SimulateRAP(res, p, d.Input(8000, 2))
	if err != nil {
		t.Fatal(err)
	}
	ratio := longRep.Energy.TotalPJ() / shortRep.Energy.TotalPJ()
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("energy ratio for 2x input = %v", ratio)
	}
	if longRep.Area.TotalMM2() != shortRep.Area.TotalMM2() {
		t.Error("area changed with input length")
	}
}

func TestIOInterruptAccounting(t *testing.T) {
	// A pattern that matches constantly drives the output buffer.
	res := compile.Compile([]string{"a"}, compile.Options{})
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 1000)
	for i := range input {
		input[i] = 'a'
	}
	rep, err := SimulateRAP(res, p, input)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 1000 {
		t.Fatalf("matches = %d", rep.Matches)
	}
	// 1000 reports / 64-entry buffer -> 16 interrupts.
	if rep.IOInterrupts != 16 {
		t.Errorf("interrupts = %d, want 16", rep.IOInterrupts)
	}
	// No matches, no interrupts.
	quiet, err := SimulateRAP(res, p, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if quiet.IOInterrupts != 0 {
		t.Errorf("quiet interrupts = %d", quiet.IOInterrupts)
	}
}

func TestMultiFinalCountingConsistent(t *testing.T) {
	// a.d? fires two reporting STEs at the same offset on "aad" (the
	// 3-symbol match via '.' and the exact 'd' match). Hardware counts
	// one report per reporting STE; every engine must agree.
	patterns := []string{"a.d?"}
	input := []byte("xxaadxx")
	want := refCount(t, patterns, input)

	rap := pipeline(t, patterns, mapper.Options{}, input)
	if rap.Matches != want {
		t.Errorf("RAP = %d, reference = %d", rap.Matches, want)
	}
	resNFA := compile.Compile(patterns, compile.Options{ModePolicy: compile.ForceNFA})
	pNFA, err := mapper.Map(resNFA, mapper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nfaRep, err := SimulateRAP(resNFA, pNFA, input)
	if err != nil {
		t.Fatal(err)
	}
	if nfaRep.Matches != want {
		t.Errorf("RAP-NFA = %d, reference = %d", nfaRep.Matches, want)
	}
	// Sanity: the offset where both finals fire contributes two reports.
	if want < 2 {
		t.Errorf("expected a double-report offset, got %d total", want)
	}
}

func TestMultiFinalNBVAConsistent(t *testing.T) {
	// Multi-final NBVA machine: x{20}(a|.) has finals 'a' and '.' which
	// can fire simultaneously on input 'a'.
	patterns := []string{"x{20}(a|.)"}
	input := append(bytesRepeat('x', 25), 'a', 'z')
	want := refCount(t, patterns, input)
	rap := pipeline(t, patterns, mapper.Options{}, input)
	if rap.Matches != want {
		t.Errorf("RAP = %d, reference = %d", rap.Matches, want)
	}
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestPerRegexAttribution(t *testing.T) {
	patterns := []string{"cat", "d{20}g", "a(x|y)*b"}
	input := append(makeInput(31, 2000, "cdxyab "), []byte(" cat "+strings.Repeat("d", 20)+"g axyxb")...)
	rep := pipeline(t, patterns, mapper.Options{}, input)
	var sum int64
	for ri, n := range rep.PerRegex {
		if ri < 0 || ri >= len(patterns) {
			t.Errorf("attribution to unknown regex %d", ri)
		}
		sum += n
	}
	if sum != rep.Matches {
		t.Errorf("per-regex sum %d != total %d", sum, rep.Matches)
	}
	for ri := range patterns {
		if rep.PerRegex[ri] == 0 {
			t.Errorf("pattern %d (%s) never attributed", ri, patterns[ri])
		}
	}
}

func TestTraceEvents(t *testing.T) {
	patterns := []string{"cat", "d{20}g"}
	input := append(makeInput(41, 500, "xy "), []byte(" cat "+strings.Repeat("d", 20)+"g")...)
	res := compile.Compile(patterns, compile.Options{})
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Trace(res, p, input, &buf); err != nil {
		t.Fatal(err)
	}
	var matchEvents, bvEvents int
	var totalMatches int64
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Matches > 0 {
			matchEvents++
			totalMatches += int64(ev.Matches)
		}
		if ev.BVPhase {
			bvEvents++
			if ev.Stall == 0 {
				t.Error("BV phase with zero stall")
			}
		}
		if ev.Offset < 0 || ev.Offset >= int64(len(input)) {
			t.Errorf("offset %d out of range", ev.Offset)
		}
	}
	if matchEvents == 0 || bvEvents == 0 {
		t.Errorf("events: %d match, %d bv", matchEvents, bvEvents)
	}
	// Trace totals must agree with the simulator.
	rep, err := SimulateRAP(res, p, input)
	if err != nil {
		t.Fatal(err)
	}
	if totalMatches != rep.Matches {
		t.Errorf("trace matches %d != sim %d", totalMatches, rep.Matches)
	}
}

func TestE2EAnchoredPatterns(t *testing.T) {
	patterns := []string{"^hello", "world$", "^exact$", "plain"}
	inputs := [][]byte{
		[]byte("hello world"),
		[]byte("say hello world"),
		[]byte("exact"),
		[]byte("not exact here plain"),
		[]byte("worldly plain hello"),
	}
	ref, err := refmatch.Compile(context.Background(), patterns, refmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := compile.Compile(patterns, compile.Options{})
	if len(res.Errors) != 0 {
		t.Fatal(res.Errors[0])
	}
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range inputs {
		rep, err := SimulateRAP(res, p, input)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(ref.Count(input))
		if rep.Matches != want {
			t.Errorf("input %q: sim %d, reference %d", input, rep.Matches, want)
		}
	}
}

// TestSimEndAnchoredNBVA: a $-anchored NBVA regex reports only at the end
// of the input, on RAP and on BVAP, as refmatch does, though the input
// holds three occurrences of ab{20}c; ^ holds too.
func TestSimEndAnchoredNBVA(t *testing.T) {
	patterns := []string{"ab{20}c$", "^xb{20}c"}
	run := strings.Repeat("b", 20) + "c"
	input := []byte("x" + run + " a" + run + " x" + run + " a" + run + " a" + run)
	ref, err := refmatch.Compile(context.Background(), patterns, refmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{}
	for _, m := range ref.Scan(input) {
		want[m.Pattern]++
	}
	if want[0] != 1 || want[1] != 1 {
		t.Fatalf("reference per-regex counts %v, want one match each", want)
	}
	res := compile.Compile(patterns, compile.Options{})
	for i := range res.Regexes {
		if res.Regexes[i].Mode != compile.ModeNBVA {
			t.Fatalf("%s compiles to %v, want NBVA", patterns[i], res.Regexes[i].Mode)
		}
	}
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateRAP(res, p, input)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 2 || !reflect.DeepEqual(rep.PerRegex, want) {
		t.Errorf("RAP: %d matches, per regex %v; reference %v", rep.Matches, rep.PerRegex, want)
	}
	resBV := compile.Compile(patterns, compile.Options{ModePolicy: compile.AllowNBVA})
	pBV, err := MapBVAP(resBV)
	if err != nil {
		t.Fatal(err)
	}
	bvap, err := SimulateBVAP(resBV, pBV, input)
	if err != nil {
		t.Fatal(err)
	}
	if bvap.Matches != 2 {
		t.Errorf("BVAP: %d matches, reference 2", bvap.Matches)
	}
}
