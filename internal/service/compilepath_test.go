package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestScanDuringSlowUpdate is the hot-path guarantee of the compile pool:
// a ruleset hot-swap parked inside its compile must not block scan
// traffic, which keeps matching the old ruleset until the swap lands.
func TestScanDuringSlowUpdate(t *testing.T) {
	s := New(Config{Workers: 2, CompileWorkers: 1})
	defer s.Close()
	prog, _, err := s.Compile(context.Background(), []string{"cat"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.compileHook = func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	upDone := make(chan error, 1)
	go func() {
		_, err := s.Update(context.Background(), prog.ID, []string{"dog"}, CompileOptions{})
		upDone <- err
	}()
	<-started

	// The update is now held open on the (only) compile worker. Scans run
	// on the scan shards and must neither block nor see the new ruleset.
	for i := 0; i < 25; i++ {
		ms, err := s.Scan(context.Background(), prog.ID, []byte("cat dog"))
		if err != nil {
			t.Fatalf("scan %d during slow update: %v", i, err)
		}
		if len(ms) != 1 || ms[0].End != 2 {
			t.Fatalf("scan %d during slow update = %v, want the old ruleset's cat match", i, ms)
		}
	}
	select {
	case err := <-upDone:
		t.Fatalf("update returned while its compile was held open (err=%v)", err)
	default:
	}

	close(release)
	if err := <-upDone; err != nil {
		t.Fatal(err)
	}
	ms, err := s.Scan(context.Background(), prog.ID, []byte("cat dog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].End != 6 {
		t.Fatalf("post-update scan = %v, want the new ruleset's dog match", ms)
	}
}

// TestCompileCanceledContext: both compile entry points surface the
// caller's cancellation instead of compiling a doomed ruleset.
func TestCompileCanceledContext(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	prog, _, err := s.Compile(context.Background(), []string{"cat"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Compile(ctx, []string{"dog"}, CompileOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Compile with canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := s.Update(ctx, prog.ID, []string{"dog"}, CompileOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Update with canceled ctx: err = %v, want context.Canceled", err)
	}
	// The program is untouched by the failed update.
	ms, err := s.Scan(context.Background(), prog.ID, []byte("cat"))
	if err != nil || len(ms) != 1 {
		t.Fatalf("scan after canceled update: %v, %v", ms, err)
	}
}

// TestVersionedHTTPSurface: /v1/ is the canonical API; the unprefixed
// routes keep working but advertise deprecation and their successor.
func TestVersionedHTTPSurface(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, ctype string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Compile and scan entirely through /v1.
	body, _ := json.Marshal(Ruleset{Patterns: []string{"cat"}})
	resp := post("/v1/programs", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/programs: %d", resp.StatusCode)
	}
	if d := resp.Header.Get("Deprecation"); d != "" {
		t.Errorf("/v1 route carries Deprecation header %q", d)
	}
	if sun := resp.Header.Get("Sunset"); sun != "" {
		t.Errorf("/v1 route carries Sunset header %q", sun)
	}
	var cr compileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp = post("/v1/programs/"+cr.ProgramID+"/scan", "application/octet-stream", []byte("the cat"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/programs/{id}/scan: %d", resp.StatusCode)
	}
	var sr scanResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Count != 1 {
		t.Fatalf("/v1 scan count = %d, want 1", sr.Count)
	}

	// Sessions and stats under /v1.
	body, _ = json.Marshal(openSessionRequest{ProgramID: cr.ProgramID})
	resp = post("/v1/sessions", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sessions: %d", resp.StatusCode)
	}
	var or openSessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp = post("/v1/sessions/"+or.SessionID+"/data", "application/octet-stream", []byte("cat"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sessions/{id}/data: %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+or.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/sessions/{id}: %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Legacy unprefixed alias: same behavior, marked deprecated with the
	// full Deprecation/Link/Sunset triple so clients can both discover
	// the successor route and know the removal date.
	resp = post("/programs/"+cr.ProgramID+"/scan", "application/octet-stream", []byte("the cat"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy POST /programs/{id}/scan: %d", resp.StatusCode)
	}
	if d := resp.Header.Get("Deprecation"); d != "true" {
		t.Errorf("legacy route Deprecation header = %q, want true", d)
	}
	wantLink := fmt.Sprintf("</v1/programs/%s/scan>; rel=%q", cr.ProgramID, "successor-version")
	if l := resp.Header.Get("Link"); l != wantLink {
		t.Errorf("legacy route Link header = %q, want %q", l, wantLink)
	}
	if sun := resp.Header.Get("Sunset"); sun != LegacySunset {
		t.Errorf("legacy route Sunset header = %q, want %q", sun, LegacySunset)
	}
	if when, err := time.Parse(http.TimeFormat, LegacySunset); err != nil {
		t.Errorf("LegacySunset %q is not an HTTP-date: %v", LegacySunset, err)
	} else if !when.After(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("LegacySunset %v already passed; move the removal date or delete the aliases", when)
	}
	sr = scanResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Count != 1 {
		t.Fatalf("legacy scan count = %d, want 1", sr.Count)
	}

	// Ops endpoints stay unversioned.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
		if d := resp.Header.Get("Deprecation"); d != "" {
			t.Errorf("GET %s carries Deprecation header %q", path, d)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestStatsCompilePool: the dedicated compile pool shows up in the stats
// snapshot and accounts the compiles it ran.
func TestStatsCompilePool(t *testing.T) {
	s := New(Config{Workers: 1, CompileWorkers: 2})
	defer s.Close()
	if _, _, err := s.Compile(context.Background(), []string{"cat"}, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CompilePool.Submitted < 1 {
		t.Errorf("compile pool submitted = %d, want >= 1", st.CompilePool.Submitted)
	}
	if _, ok := st.Stages["compile_queue_wait"]; !ok {
		t.Error("stats missing compile_queue_wait stage")
	}
}

func TestHashStrings(t *testing.T) {
	a := hashStrings("t", "x", "y")
	b := hashStrings("t", "xy")
	if a == b {
		t.Error("hashStrings collides across splits")
	}
	if a != hashStrings("t", "x", "y") {
		t.Error("hashStrings unstable")
	}
}

// TestProgramKeyPinned holds program IDs where PR 22's parent commit left them:
// removing the dead sfa_state_cap wire option must not move the ID of a
// ruleset compiled under default or other options, and a client that
// still sends the field is served the default program, not a fork of it.
func TestProgramKeyPinned(t *testing.T) {
	patterns := []string{"cat", "ab{10,48}c", "end$"}
	const defaults = "e59c573295442740b5085afffe53d1ca869468472b87676d82f56b5477012790"
	if got := ProgramKey(patterns, CompileOptions{}); got != defaults {
		t.Errorf("default options: %s, want %s", got, defaults)
	}
	const tuned = "878eed992b7736c1eafc3867a4ae7b231dc7b143317e4db4e3ff447c13cca927"
	if got := ProgramKey(patterns, CompileOptions{UnfoldThreshold: 12, DFAStateCap: 512}); got != tuned {
		t.Errorf("unfold 12, DFA cap 512: %s, want %s", got, tuned)
	}

	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var cr compileResponse
	resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/programs",
		[]byte(`{"patterns":["cat","ab{10,48}c","end$"],"options":{"sfa_state_cap":77}}`), &cr)
	if resp.StatusCode != http.StatusOK || cr.ProgramID != defaults {
		t.Errorf("a request still carrying sfa_state_cap: %d, program %s, want %s", resp.StatusCode, cr.ProgramID, defaults)
	}
}
