package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/mapper"
	"repro/internal/refmatch"
	"repro/internal/workload"
)

func TestUpdateHotSwap(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	prog, _, err := s.Compile(context.Background(), []string{"cat"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Update(context.Background(), prog.ID, []string{"dog"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProgramID != prog.ID || res.Generation != 1 {
		t.Errorf("update result id=%s gen=%d", res.ProgramID, res.Generation)
	}
	if res.DeltaBytes <= 0 || res.DeltaBytes >= res.FullImageBytes {
		t.Errorf("delta %d B not below full image %d B", res.DeltaBytes, res.FullImageBytes)
	}
	if res.ReloadCycles <= 0 || res.ReloadCycles >= res.FullReloadCycles {
		t.Errorf("incremental reload %d cycles not below full %d", res.ReloadCycles, res.FullReloadCycles)
	}
	// Scans against the same ID now run the new ruleset.
	ms, err := s.Scan(context.Background(), prog.ID, []byte("cat dog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].End != 6 {
		t.Errorf("post-update scan matches = %v, want dog only", ms)
	}
	// A second update bumps the generation again.
	res2, err := s.Update(context.Background(), prog.ID, []string{"bird"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Generation != 2 {
		t.Errorf("second update generation = %d", res2.Generation)
	}
	st := s.Stats()
	if st.Reconfig.Updates != 2 {
		t.Errorf("stats updates = %d", st.Reconfig.Updates)
	}
	if st.Reconfig.DeltaBytes != int64(res.DeltaBytes+res2.DeltaBytes) {
		t.Errorf("stats delta bytes = %d", st.Reconfig.DeltaBytes)
	}
	if st.Reconfig.UpdateLatency.Count != 2 {
		t.Errorf("update latency count = %d", st.Reconfig.UpdateLatency.Count)
	}
	if len(st.Programs) != 1 || st.Programs[0].Generation != 2 {
		t.Errorf("program snapshot = %+v", st.Programs)
	}
}

func TestUpdateIdenticalRulesetIsNearFree(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	prog, _, err := s.Compile(context.Background(), []string{"cat", "dog"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Update(context.Background(), prog.ID, []string{"cat", "dog"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaRecords != 0 || res.ReloadCycles != 0 || res.StallCycles != 0 {
		t.Errorf("no-op update: %d records, %d reload, %d stall",
			res.DeltaRecords, res.ReloadCycles, res.StallCycles)
	}
	if res.Generation != 1 {
		t.Errorf("no-op update generation = %d", res.Generation)
	}
}

func TestUpdatePinsOpenSessions(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	prog, _, err := s.Compile(context.Background(), []string{"cat"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oldSess, err := s.OpenSession(context.Background(), prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(context.Background(), prog.ID, []string{"dog"}, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	// The pre-update session still runs the old ruleset.
	ms, err := s.Feed(context.Background(), oldSess, []byte("cat dog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].End != 2 {
		t.Errorf("pinned session matches = %v, want cat only", ms)
	}
	// A session opened after the update runs the new one.
	newSess, err := s.OpenSession(context.Background(), prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	ms, err = s.Feed(context.Background(), newSess, []byte("cat dog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].End != 6 {
		t.Errorf("new session matches = %v, want dog only", ms)
	}
	for _, id := range []string{oldSess, newSess} {
		if _, _, err := s.CloseSession(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUpdatedThenEvictedProgramStillServesOldSessions(t *testing.T) {
	// A session opened before an update survives both the hot-swap of its
	// program ID and the LRU eviction of the updated program: its *Program
	// pointer pins the pre-update matcher until CloseSession.
	s := New(Config{Workers: 1, ProgramCacheSize: 1})
	defer s.Close()
	p1, _, err := s.Compile(context.Background(), []string{"ab"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.OpenSession(context.Background(), p1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(context.Background(), p1.ID, []string{"cd"}, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Compile(context.Background(), []string{"ef"}, CompileOptions{}); err != nil {
		t.Fatal(err) // evicts the updated program behind p1.ID
	}
	if _, ok := s.Program(p1.ID); ok {
		t.Fatal("updated program should be evicted")
	}
	ms, err := s.Feed(context.Background(), id, []byte("xabx then cd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].End != 2 {
		t.Errorf("evicted+updated session matches = %v, want pre-update ab", ms)
	}
	if _, _, err := s.CloseSession(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(context.Background(), p1.ID, []string{"gh"}, CompileOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update of evicted ID err = %v", err)
	}
}

func TestUpdateErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Update(context.Background(), "nope", []string{"x"}, CompileOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown program err = %v", err)
	}
	prog, _, err := s.Compile(context.Background(), []string{"cat"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(context.Background(), prog.ID, nil, CompileOptions{}); err == nil {
		t.Error("empty pattern list accepted")
	}
	if _, err := s.Update(context.Background(), prog.ID, []string{"("}, CompileOptions{}); err == nil {
		t.Error("invalid pattern accepted")
	}
	// A failed update must leave the old ruleset serving.
	ms, err := s.Scan(context.Background(), prog.ID, []byte("cat"))
	if err != nil || len(ms) != 1 {
		t.Errorf("program damaged by failed update: ms=%v err=%v", ms, err)
	}
	if st := s.Stats(); st.Reconfig.Updates != 0 {
		t.Errorf("failed updates counted: %d", st.Reconfig.Updates)
	}
}

func TestUpdateConcurrentFeed(t *testing.T) {
	// Hot-swap while sessions are streaming: run under -race this is the
	// thread-safety acceptance test for live reconfiguration. Sessions
	// opened before any update must keep matching the original ruleset
	// throughout; scans after the last update see the final one.
	s := New(Config{Workers: 4, QueueDepth: 256})
	defer s.Close()
	prog, _, err := s.Compile(context.Background(), []string{"cat"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const feeders = 8
	ids := make([]string, feeders)
	for i := range ids {
		if ids[i], err = s.OpenSession(context.Background(), prog.ID); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, feeders)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				ms, err := s.Feed(context.Background(), id, []byte("xcatx"))
				if err != nil {
					if errors.Is(err, ErrQueueFull) {
						continue
					}
					errCh <- err
					return
				}
				if len(ms) != 1 {
					errCh <- fmt.Errorf("pinned session saw %d matches mid-update", len(ms))
					return
				}
			}
		}(id)
	}
	rulesets := [][]string{{"dog"}, {"bird"}, {"dog"}, {"fish"}}
	for _, rs := range rulesets {
		if _, err := s.Update(context.Background(), prog.ID, rs, CompileOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	for _, id := range ids {
		if _, _, err := s.CloseSession(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := s.Scan(context.Background(), prog.ID, []byte("cat dog fish"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].End != 11 {
		t.Errorf("post-update scan = %v, want final ruleset fish", ms)
	}
	if got := s.Stats().Reconfig.Updates; got != int64(len(rulesets)) {
		t.Errorf("updates = %d, want %d", got, len(rulesets))
	}
}

func TestHTTPUpdate(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	prog, _, err := s.Compile(context.Background(), []string{"cat"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(Ruleset{Patterns: []string{"dog"}})
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/programs/"+prog.ID, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	var res UpdateResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || res.DeltaBytes <= 0 || res.DeltaBytes >= res.FullImageBytes {
		t.Errorf("update response = %+v", res)
	}

	// Unknown ID → 404; bad pattern → 400.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/programs/nope", bytes.NewReader(body))
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ID: %v %v", resp.StatusCode, err)
	}
	bad, _ := json.Marshal(Ruleset{Patterns: []string{"("}})
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/programs/"+prog.ID, bytes.NewReader(bad))
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad pattern: %v %v", resp.StatusCode, err)
	}
}

// TestOversizeNFAScansButDoesNotDeploy: the one compile behind a program
// serves both the software matcher and the deployment image, and only
// the image is bound by the fabric's per-array capacity. (a|bc){1500}x
// is a 4501-state NFA: it compiles and scans, and Update refuses it as the
// new ruleset because the mapper cannot place it. An update from it, whose
// image was never built, loads the new image whole.
func TestOversizeNFAScansButDoesNotDeploy(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	big := []string{"(a|bc){1500}x"}
	bigProg, _, err := s.Compile(ctx, big, CompileOptions{})
	if err != nil {
		t.Fatalf("oversize NFA must stay servable in software: %v", err)
	}
	body := append(bytes.Repeat([]byte("abc"), 1000), 'x')
	if ms, err := s.Scan(ctx, bigProg.ID, body); err != nil || len(ms) != 1 || ms[0].End != len(body)-1 {
		t.Fatalf("scan: ms=%v err=%v", ms, err)
	}
	small, _, err := s.Compile(ctx, []string{"cat"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(ctx, small.ID, big, CompileOptions{}); !errors.Is(err, mapper.ErrUnmappable) {
		t.Errorf("update to an oversize ruleset: err = %v, want mapper.ErrUnmappable", err)
	}
	if got, err := s.Update(ctx, bigProg.ID, []string{"cat"}, CompileOptions{}); err != nil || got.ReloadCycles != got.FullReloadCycles {
		t.Errorf("update from an oversize ruleset: %+v, err = %v, want a full load", got, err)
	}
	if st := s.Stats(); st.Reconfig.Updates != 1 {
		t.Errorf("%d updates counted, want only the one from the oversize ruleset", st.Reconfig.Updates)
	}
}

// TestPortCollisionScansButDoesNotDeploy: under force_nfa,
// (a{32}|b{32}|c{32}|d{32})e needs four states on one global port of the
// fabric (bitstream.Build refuses it). Like an oversize NFA, it compiles
// and scans, Update refuses it as the new ruleset, and an update from it
// loads the new image whole.
func TestPortCollisionScansButDoesNotDeploy(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	forced := CompileOptions{ModePolicy: ModePolicyForceNFA}
	colliding := []string{"(a{32}|b{32}|c{32}|d{32})e"}
	prog, _, err := s.Compile(ctx, colliding, forced)
	if err != nil {
		t.Fatalf("a ruleset the fabric cannot route must stay servable in software: %v", err)
	}
	body := append(bytes.Repeat([]byte("c"), 40), 'e')
	if ms, err := s.Scan(ctx, prog.ID, body); err != nil || len(ms) != 1 || ms[0].End != len(body)-1 {
		t.Fatalf("scan: ms=%v err=%v", ms, err)
	}
	if _, _, err := prog.hwImage(); err == nil || !strings.Contains(err.Error(), "global port 31 ") {
		t.Errorf("hwImage: %v, want the port collision", err)
	}
	small, _, err := s.Compile(ctx, []string{"cat"}, forced)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(ctx, small.ID, colliding, forced); err == nil || !strings.Contains(err.Error(), "global port 31 ") {
		t.Errorf("update to a colliding ruleset: err = %v, want the port collision", err)
	}
	if got, err := s.Update(ctx, prog.ID, []string{"cat"}, forced); err != nil || got.ReloadCycles != got.FullReloadCycles {
		t.Errorf("update from a colliding ruleset: %+v, err = %v, want a full load", got, err)
	}
}

// TestUpdateResultPinned pins the modeled cost of one Snort@0.2 swap
// (every tenth pattern replaced, then restored). Recorded once the
// placement became stable across updates: each kept pattern keeps its
// place and the delta rewrites only the tiles the edit touched: a half and
// a quarter of what re-placing the whole ruleset shipped (8 334 and 8 346
// bytes).
func TestUpdateResultPinned(t *testing.T) {
	d := workload.MustGenerate("Snort", 0.2, 1)
	other := workload.MustGenerate("Snort", 0.2, 2)
	swapped := append([]string(nil), d.Patterns...)
	for i := 0; i < len(swapped); i += 10 {
		swapped[i] = other.Patterns[i]
	}
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	prog, _, err := s.Compile(ctx, d.Patterns, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []UpdateResult{
		{ProgramID: prog.ID, Generation: 1, NumPatterns: 30, DeltaBytes: 4207, FullImageBytes: 153930,
			DeltaRecords: 299, ArraysTouched: 3, ArraysUntouched: 0, ReloadCycles: 195, FullReloadCycles: 9376,
			StallCycles: 210, EnergyPJ: 2173.348, ModelLatencyUS: 0.10096153846153846},
		{ProgramID: prog.ID, Generation: 2, NumPatterns: 30, DeltaBytes: 2104, FullImageBytes: 153942,
			DeltaRecords: 145, ArraysTouched: 3, ArraysUntouched: 0, ReloadCycles: 97, FullReloadCycles: 9377,
			StallCycles: 112, EnergyPJ: 1064.66, ModelLatencyUS: 0.05384615384615385},
	}
	for i, patterns := range [][]string{swapped, d.Patterns} {
		got, err := s.Update(ctx, prog.ID, patterns, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if *got != want[i] {
			t.Errorf("update %d:\n got %+v\nwant %+v", i+1, *got, want[i])
		}
	}
	// force_nfa is a different program with every pattern on the NFA route.
	forced, _, err := s.Compile(ctx, d.Patterns, CompileOptions{ModePolicy: ModePolicyForceNFA})
	if err != nil {
		t.Fatal(err)
	}
	if forced.ID == prog.ID {
		t.Error("force_nfa hashed to the same program ID as the default policy")
	}
	for i, e := range forced.Matcher.Engines() {
		if e != refmatch.EngineNFA && e != refmatch.EngineDFA {
			t.Errorf("force_nfa: pattern %d runs on %v", i, e)
		}
	}
}

// TestConcurrentUpdatesShareServedPlacement: updates of one program racing
// each other all remap from, and rebuild on, whichever generation they
// found served; the placement and image they read are shared and never
// written. Under -race any write to them is a failure, and the generation
// that ends up served must still be its own placement built whole.
func TestConcurrentUpdatesShareServedPlacement(t *testing.T) {
	rules := [2][]string{}
	rules[0], rules[1] = tenthSwapped("Snort", 0.5)
	s := New(Config{CompileWorkers: 4})
	defer s.Close()
	ctx := context.Background()
	prog, _, err := s.Compile(ctx, rules[0], CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const updaters, each = 4, 10
	var wg sync.WaitGroup
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Update(ctx, prog.ID, rules[(u+i)%2], CompileOptions{}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	served, _ := s.Program(prog.ID)
	if served.Generation != updaters*each {
		t.Errorf("generation %d after %d updates", served.Generation, updaters*each)
	}
	img, place, err := served.hwImage()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := bitstream.Build(served.res, place)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshalImage(t, img), marshalImage(t, whole); !bytes.Equal(a, b) {
		t.Error("the served image is not its placement built whole")
	}
}
