package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json, the contract a harness reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the program's own
// tables in step: same workloads and reasons, same metric names, units,
// directions and bounds, same run length.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n prog %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, unbounded()) {
		t.Errorf("per_layer differs:\n json %+v\n prog %+v", bf.PerLayer, unbounded())
	}
}

// TestSmoke runs all five workloads end to end at a fraction of a second
// each: every metric is a finite number under a well-formed name, no op
// fails or is answered wrongly, the replay's spans link up, and nothing
// is left running.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and a 3-node cluster")
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s.replay = min(s.replay, 4)
			s.warmOps = min(s.warmOps, 4)
			r, err := runWorkload(s, 1, 0.3, true)
			if err != nil {
				t.Fatal(err)
			}
			if r.Attempted == 0 || r.Failed != 0 || r.Metrics["failed_share"] != 0 {
				t.Errorf("attempted %d, failed %d, failed_share %v", r.Attempted, r.Failed, r.Metrics["failed_share"])
			}
			seen := map[string]bool{}
			for _, d := range append(append([]metricDef(nil), endToEnd...), unbounded()...) {
				v, ok := r.Metrics[d.Name]
				switch {
				case !nameOK.MatchString(d.Name):
					t.Errorf("metric name %q is malformed", d.Name)
				case seen[d.Name]:
					t.Errorf("metric %q listed twice", d.Name)
				case !ok:
					t.Errorf("metric %q not emitted", d.Name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("metric %q = %v", d.Name, v)
				}
				seen[d.Name] = true
			}
			for _, d := range endToEnd {
				if r.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %q = %v, want > 0", d.Name, r.Metrics[d.Name])
				}
			}
			if got := r.Metrics["proc.goroutines_leaked"]; got != 0 {
				t.Errorf("%v goroutines leaked", got)
			}
			if got := r.Metrics["cluster.forwards_per_op"]; got != 1 {
				t.Errorf("cluster.forwards_per_op = %v, want 1", got)
			}
			if got := r.Metrics["refmatch.matches_per_op"]; got <= 0 {
				t.Errorf("refmatch.matches_per_op = %v: the inputs exercise no pattern", got)
			}
			checkSpans(t, r.spans)
		})
	}
}

// checkSpans verifies the replay's span tree: every span is well formed,
// and a span's parent, where the replay called into it, was called for
// the same op. (The replay is sequential, so a parent encloses its child
// in cost, not on the clock; that the medians agree is what the *.tax
// rows report.)
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	type key struct {
		layer string
		op    int
	}
	have, layers := map[key]bool{}, map[string]bool{}
	for _, sp := range spans {
		if sp.EndNS < sp.StartNS || sp.StartNS < 0 || sp.Layer == "" {
			t.Errorf("malformed span %+v", sp)
		}
		if have[key{sp.Layer, sp.Op}] {
			t.Errorf("span %s op %d recorded twice", sp.Layer, sp.Op)
		}
		have[key{sp.Layer, sp.Op}], layers[sp.Layer] = true, true
	}
	for _, sp := range spans {
		if sp.Parent == sp.Layer {
			t.Errorf("span %s is its own parent", sp.Layer)
		}
		if layers[sp.Parent] && !have[key{sp.Parent, sp.Op}] {
			t.Errorf("span %s op %d: parent %s has no span for that op", sp.Layer, sp.Op, sp.Parent)
		}
	}
	for _, root := range []string{"cluster.hop", "rapclient.update"} {
		if !layers[root] {
			t.Errorf("no %s spans", root)
		}
	}
}
