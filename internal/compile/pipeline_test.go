package compile

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// pipelinePatterns merges every §5.1 dataset into one multi-hundred-
// pattern ruleset (~1000 patterns at scale 1), plus two malformed
// patterns so diagnostic ordering is exercised too.
func pipelinePatterns(tb testing.TB) []string {
	tb.Helper()
	var pats []string
	for _, name := range workload.Names {
		d, err := workload.Generate(name, 1, 7)
		if err != nil {
			tb.Fatal(err)
		}
		pats = append(pats, d.Patterns...)
	}
	if len(pats) < 500 {
		tb.Fatalf("merged workload too small: %d patterns", len(pats))
	}
	return append(pats, "(", "a{99999}")
}

// TestParallelCompileDeterministic is the pipeline's core contract: the
// Result is byte-identical whatever the worker count — same slot order,
// same modes, same decision trails, same diagnostics, same fingerprint.
// Run under -race this also shakes out unsynchronized slot writes.
func TestParallelCompileDeterministic(t *testing.T) {
	pats := pipelinePatterns(t)
	serial := Compile(pats, Options{Parallelism: 1})
	base := serial.Fingerprint()
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0) + 3} {
		par := Compile(pats, Options{Parallelism: workers})
		if got := par.Fingerprint(); got != base {
			t.Fatalf("parallelism %d: fingerprint %s != serial %s", workers, got, base)
		}
		if !reflect.DeepEqual(par.Regexes, serial.Regexes) {
			t.Fatalf("parallelism %d: Regexes differ from serial compile", workers)
		}
		if !reflect.DeepEqual(par.Diags, serial.Diags) {
			t.Fatalf("parallelism %d: Diags differ from serial compile", workers)
		}
		if len(par.Errors) != len(serial.Errors) {
			t.Fatalf("parallelism %d: %d errors != serial %d", workers, len(par.Errors), len(serial.Errors))
		}
		for i := range par.Errors {
			if par.Errors[i].Error() != serial.Errors[i].Error() {
				t.Fatalf("parallelism %d: error %d %q != serial %q", workers, i, par.Errors[i], serial.Errors[i])
			}
		}
	}
}

// TestCompileContextPreCanceled: a context canceled before the call never
// compiles anything and reports context.Canceled with no partial Result.
func TestCompileContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := CompileContext(ctx, []string{"abc", "a{3,9}b"}, Options{Parallelism: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("parallelism %d: partial result must be discarded on cancel", workers)
		}
	}
}

// TestCompileContextCancelMidRuleset cancels a large compile in flight:
// the call must return promptly (workers stop claiming patterns) and the
// pool's goroutines must drain — no leaks.
func TestCompileContextCancelMidRuleset(t *testing.T) {
	pats := pipelinePatterns(t)
	// Inflate so the compile reliably outlives the cancellation point.
	for i := 0; i < 3; i++ {
		pats = append(pats, pats...)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := CompileContext(ctx, pats, Options{})
		done <- outcome{res, err}
	}()
	time.Sleep(time.Millisecond)
	cancel()
	select {
	case out := <-done:
		// The compile may legitimately finish before cancel lands on a
		// fast machine; what is forbidden is a canceled call returning a
		// partial Result, or hanging.
		if out.err != nil {
			if !errors.Is(out.err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", out.err)
			}
			if out.res != nil {
				t.Fatal("canceled compile must discard its partial result")
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("CompileContext did not return after cancel")
	}
	// Worker goroutines must exit once the call returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak after cancel: %d before, %d after", before, g)
	}
}

// BenchmarkCompile measures the staged pipeline on the merged §5.1
// ruleset (~1000 patterns): serial baseline vs 4 workers vs GOMAXPROCS.
func BenchmarkCompile(b *testing.B) {
	pats := pipelinePatterns(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel4", 4},
		{"parallelMax", 0}, // 0 → GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := Compile(pats, Options{Parallelism: bc.workers})
				if len(res.Errors) != 2 {
					b.Fatalf("expected the 2 planted bad patterns, got %d errors", len(res.Errors))
				}
			}
		})
	}
}

// TestDatasetFingerprintsPinned pins the front-end's output on the seven
// datasets (scale 1, seed 1): a refactor of parsing, rewriting, routing
// or machine construction that changes any mode, size or decision trail
// shows up here.
func TestDatasetFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"RegexLib":     "3c023f6a7dc21d838cdad00c3a549e95536110b01e8ddd8ac1965eb205abda45",
		"Prosite":      "ccc355162cb7480a4e9b9dbc711909c3feda7f192bb69da1940048c708bd5c4e",
		"SpamAssassin": "0a00f4954233f620a870ca1274115d0ef7dc91623d91b646e204ef204ea0765f",
		"Snort":        "f710f1c530fe9cfdd84782fd5fa1c1d9c782e15631659842c54f6cb021b06e02",
		"Suricata":     "7c474f79e2e7524dcd401265aaadcb9bf1ee7e0718b46b8dfa0be65fcbc64a3c",
		"Yara":         "c9e46025db1c8e56061a7a52d9291677dbb9b50a9520e6b85474699b1841dd30",
		"ClamAV":       "541794755b34595c45f8f787b82bf3e67d58c958250c642810311bb216531d50",
	}
	for _, name := range workload.Names {
		d := workload.MustGenerate(name, 1, 1)
		if got := Compile(d.Patterns, Options{}).Fingerprint(); got != want[name] {
			t.Errorf("%s: fingerprint %s, want %s", name, got, want[name])
		}
	}
}

// TestRecompileEqualsCompile: compiling against an earlier generation gives
// the Result a cold compile gives — entries land in their new slots under
// their new indexes, a text that failed before is compiled (and fails)
// again — while the machines of shared texts are the earlier generation's
// own, and other options share nothing.
func TestRecompileEqualsCompile(t *testing.T) {
	ctx := context.Background()
	pats := pipelinePatterns(t)
	prev := Compile(pats, Options{})
	// Reversed, with every third text new to prev.
	next := make([]string, len(pats))
	fresh := workload.MustGenerate("Snort", 1, 8).Patterns
	held := make(map[string]bool, len(pats))
	for _, p := range pats[:len(pats)-2] { // the last two do not compile
		held[p] = true
	}
	wantReused := 0
	for i := range next {
		if next[i] = pats[len(pats)-1-i]; i%3 == 0 {
			next[i] = fresh[i%len(fresh)]
		}
		if held[next[i]] {
			wantReused++
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := Recompile(ctx, prev, nil, next, Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		cold := Compile(next, Options{})
		if got.Fingerprint() != cold.Fingerprint() || !reflect.DeepEqual(got.Diags, cold.Diags) || len(got.Errors) != len(cold.Errors) {
			t.Fatalf("parallelism %d: Recompile differs from a cold compile of the same list", workers)
		}
		if got.Reused != wantReused || cold.Reused != 0 {
			t.Errorf("parallelism %d: %d slots reused (cold: %d), want %d (0)", workers, got.Reused, cold.Reused, wantReused)
		}
		byText := make(map[string]*Compiled, len(prev.Regexes))
		for i := range prev.Regexes {
			byText[prev.Regexes[i].Source] = &prev.Regexes[i]
		}
		for i := range got.Regexes {
			c, old := &got.Regexes[i], byText[next[i]]
			if held[next[i]] && (c.AST != old.AST || c.NFA != old.NFA || c.NBVA != old.NBVA) {
				t.Fatalf("parallelism %d: slot %d (%q) does not share the earlier generation's machine", workers, i, next[i])
			}
		}
	}
	other, err := Recompile(ctx, prev, nil, next, Options{UnfoldThreshold: 12})
	if err != nil {
		t.Fatal(err)
	}
	if cold := Compile(next, Options{UnfoldThreshold: 12}); other.Reused != 0 || other.Fingerprint() != cold.Fingerprint() {
		t.Errorf("under another unfold threshold %d slots were reused; fingerprints equal: %v", other.Reused, other.Fingerprint() == cold.Fingerprint())
	}
}

// TestRecompileRestoresFromOlder: a text prev lacks but older, the
// generation prev replaced, compiled under the same options takes older's
// entry with From -1, so the mapper places it as new; a text both hold is
// prev's. The Result is still a cold compile's, and an older generation
// under other options restores nothing.
func TestRecompileRestoresFromOlder(t *testing.T) {
	ctx := context.Background()
	pats := pipelinePatterns(t)
	a := Compile(pats, Options{})
	next := append([]string(nil), pats...)
	fresh := workload.MustGenerate("Snort", 1, 8).Patterns
	for i := 0; i < len(next); i += 10 {
		next[i] = fresh[i%len(fresh)]
	}
	b, err := Recompile(ctx, a, nil, next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	held := make(map[string]bool, len(next))
	for i, p := range next {
		held[p] = b.Diags[i].OK()
	}
	wantReused, wantRestored := 0, 0
	for i, p := range pats {
		if held[p] {
			wantReused++
		} else if a.Diags[i].OK() {
			wantRestored++
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := Recompile(ctx, b, a, pats, Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != a.Fingerprint() || !reflect.DeepEqual(got.Diags, a.Diags) {
			t.Fatalf("parallelism %d: the revert differs from a cold compile", workers)
		}
		if got.Reused != wantReused || got.Restored != wantRestored || wantRestored == 0 {
			t.Errorf("parallelism %d: %d reused, %d restored, want %d and %d", workers, got.Reused, got.Restored, wantReused, wantRestored)
		}
		for i := range got.Regexes {
			if held[pats[i]] || !a.Diags[i].OK() {
				continue
			}
			if c, old := &got.Regexes[i], &a.Regexes[i]; got.From[i] != -1 || c.AST != old.AST || c.NFA != old.NFA || c.NBVA != old.NBVA {
				t.Fatalf("parallelism %d: restored slot %d (%q) has From %d or does not share the older generation's machine", workers, i, pats[i], got.From[i])
			}
		}
	}
	other := Compile(pats, Options{UnfoldThreshold: 12})
	got, err := Recompile(ctx, b, other, pats, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Restored != 0 || got.Reused != wantReused {
		t.Errorf("an older generation under other options: %d restored, %d reused, want 0 and %d", got.Restored, got.Reused, wantReused)
	}
}
