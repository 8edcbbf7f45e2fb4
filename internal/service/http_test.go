package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/input"
	"repro/internal/refmatch"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// doJSON posts body and decodes the JSON response into out.
func doJSON(t *testing.T, client *http.Client, method, url string, body []byte, out interface{}) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp
}

// TestRapserveEndToEnd is the acceptance test of the serving tentpole:
// a Snort-profile ruleset is compiled once, the same input is scanned
// one-shot and split across 4 streaming chunks from 8 concurrent
// sessions, and every path must report the byte-identical match set of a
// direct refmatch.Scan over the whole buffer. A second identical compile
// must be a cache hit observable in /stats.
func TestRapserveEndToEnd(t *testing.T) {
	d, err := workload.Generate("Snort", 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	input := d.Input(20000, 107)

	// Ground truth: direct refmatch over the whole buffer.
	m, err := refmatch.Compile(context.Background(), d.Patterns, refmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Scan(input)
	sortMatches(want)
	if len(want) == 0 {
		t.Fatal("generated input produced no matches; test would be vacuous")
	}

	svc := New(Config{Workers: 4, QueueDepth: 1024})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	// Compile via HTTP.
	body, _ := json.Marshal(Ruleset{Patterns: d.Patterns})
	var comp compileResponse
	resp := doJSON(t, client, "POST", srv.URL+"/programs", body, &comp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d", resp.StatusCode)
	}
	if comp.CacheHit {
		t.Error("first compile was a cache hit")
	}
	if comp.NumPatterns != len(d.Patterns) {
		t.Errorf("num_patterns = %d, want %d", comp.NumPatterns, len(d.Patterns))
	}

	// Identical second compile: cache hit, no recompile.
	var comp2 compileResponse
	doJSON(t, client, "POST", srv.URL+"/programs", body, &comp2)
	if !comp2.CacheHit || comp2.ProgramID != comp.ProgramID {
		t.Fatalf("second compile hit=%v id match=%v", comp2.CacheHit, comp2.ProgramID == comp.ProgramID)
	}
	var st Stats
	doJSON(t, client, "GET", srv.URL+"/stats", nil, &st)
	if st.Cache.Misses != 1 {
		t.Errorf("stats: %d compiles for 2 identical requests", st.Cache.Misses)
	}
	if st.Cache.Hits < 1 {
		t.Errorf("stats: cache hits = %d, want >= 1", st.Cache.Hits)
	}

	// (a) one-shot scan over HTTP.
	var oneShot scanResponse
	resp = doJSON(t, client, "POST", srv.URL+"/programs/"+comp.ProgramID+"/scan", input, &oneShot)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d", resp.StatusCode)
	}
	got := fromJSON(oneShot.Matches)
	sortMatches(got)
	if !matchesEqual(got, want) {
		t.Fatalf("one-shot: %d matches != direct %d", len(got), len(want))
	}

	// (b) the same input split across 4 chunks from 8 concurrent sessions.
	const nSessions = 8
	chunkBounds := []int{0, len(input) / 4, len(input) / 2, 3 * len(input) / 4, len(input)}
	var wg sync.WaitGroup
	errCh := make(chan error, nSessions)
	for si := 0; si < nSessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sb, _ := json.Marshal(openSessionRequest{ProgramID: comp.ProgramID})
			req, _ := http.NewRequest("POST", srv.URL+"/sessions", bytes.NewReader(sb))
			resp, err := client.Do(req)
			if err != nil {
				errCh <- err
				return
			}
			var open openSessionResponse
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(data, &open); err != nil {
				errCh <- fmt.Errorf("session %d open: %v (%s)", si, err, data)
				return
			}
			var streamed []refmatch.Match
			for c := 0; c+1 < len(chunkBounds); c++ {
				chunk := input[chunkBounds[c]:chunkBounds[c+1]]
				req, _ := http.NewRequest("POST", srv.URL+"/sessions/"+open.SessionID+"/data", bytes.NewReader(chunk))
				resp, err := client.Do(req)
				if err != nil {
					errCh <- err
					return
				}
				var feed feedResponse
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("session %d chunk %d: status %d (%s)", si, c, resp.StatusCode, data)
					return
				}
				if err := json.Unmarshal(data, &feed); err != nil {
					errCh <- err
					return
				}
				streamed = append(streamed, fromJSON(feed.Matches)...)
			}
			req, _ = http.NewRequest("DELETE", srv.URL+"/sessions/"+open.SessionID, nil)
			resp, err = client.Do(req)
			if err != nil {
				errCh <- err
				return
			}
			var cl closeSessionResponse
			data, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(data, &cl); err != nil {
				errCh <- err
				return
			}
			streamed = append(streamed, fromJSON(cl.Matches)...)
			sortMatches(streamed)
			if !matchesEqual(streamed, want) {
				errCh <- fmt.Errorf("session %d: %d streamed matches != direct %d", si, len(streamed), len(want))
				return
			}
			if cl.Summary.Bytes != int64(len(input)) {
				errCh <- fmt.Errorf("session %d: bytes %d != %d", si, cl.Summary.Bytes, len(input))
			}
		}(si)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Final stats sanity: all sessions closed, traffic accounted.
	doJSON(t, client, "GET", srv.URL+"/stats", nil, &st)
	if st.Sessions.Open != 0 || st.Sessions.Opened != nSessions {
		t.Errorf("sessions = %+v", st.Sessions)
	}
	wantBytes := int64(len(input)) * (nSessions + 1)
	if st.ScanBytes != wantBytes {
		t.Errorf("scan_bytes = %d, want %d", st.ScanBytes, wantBytes)
	}
	if st.ScanLatency.Count == 0 {
		t.Error("latency histogram never observed")
	}
	if len(st.Programs) != 1 || st.Programs[0].Sessions != nSessions {
		t.Errorf("program stats = %+v", st.Programs)
	}
}

// TestObservabilityEndToEnd is the acceptance test of the telemetry
// tentpole: one traced scan request must surface the same trace ID in
// the X-Trace-Id response header, the structured slog access log, and
// the /debug/traces ring — with a "scan" span recorded — while /metrics
// serves Prometheus text exposition carrying the per-stage histograms
// and reconfig counters, and /stats reports build identity. Both
// snapshot endpoints must forbid intermediary caching.
func TestObservabilityEndToEnd(t *testing.T) {
	var logBuf bytes.Buffer
	logMu := &sync.Mutex{}
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: logMu, w: &logBuf}, nil))

	svc := New(Config{Workers: 2, Logger: logger})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	body, _ := json.Marshal(Ruleset{Patterns: []string{"needle", "ab{2,5}c"}})
	var comp compileResponse
	doJSON(t, client, "POST", srv.URL+"/programs", body, &comp)

	// Scan with an incoming traceparent: the service must continue the
	// caller's trace rather than minting a fresh ID.
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("POST", srv.URL+"/programs/"+comp.ProgramID+"/scan",
		bytes.NewReader([]byte("xx needle yy abbbc")))
	req.Header.Set(telemetry.TraceParentHeader, "00-"+wantTrace+"-00f067aa0ba902b7-01")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != wantTrace {
		t.Fatalf("X-Trace-Id = %q, want %q", got, wantTrace)
	}

	// 1/3: the access log line carries the trace ID.
	logMu.Lock()
	logText := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logText, wantTrace) {
		t.Errorf("access log does not mention trace %s:\n%s", wantTrace, logText)
	}
	if !strings.Contains(logText, `"path":"/programs/`+comp.ProgramID+`/scan"`) {
		t.Errorf("access log does not mention the scan path:\n%s", logText)
	}

	// 2/3: the trace ring has the finished trace, with a scan span.
	req, _ = http.NewRequest("GET", srv.URL+"/debug/traces", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	traceDump, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/debug/traces Cache-Control = %q", cc)
	}
	var dump struct {
		Traces []struct {
			TraceID string           `json:"trace_id"`
			Spans   []telemetry.Span `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(traceDump, &dump); err != nil {
		t.Fatalf("/debug/traces: %v (%s)", err, traceDump)
	}
	foundTrace := false
	spans := map[string]bool{}
	for _, tr := range dump.Traces {
		if tr.TraceID != wantTrace {
			continue
		}
		foundTrace = true
		for _, sp := range tr.Spans {
			spans[sp.Name] = true
		}
	}
	if !foundTrace || !spans["scan"] || !spans["body_read"] || !spans["encode"] {
		t.Errorf("/debug/traces: trace found=%v, want scan, body_read and encode among spans %v (%s)", foundTrace, spans, traceDump)
	}

	// 3/3 is the X-Trace-Id check above. Now the exposition surface.
	req, _ = http.NewRequest("GET", srv.URL+"/metrics", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/metrics Cache-Control = %q", cc)
	}
	for _, want := range []string{
		`# TYPE rap_stage_duration_us histogram`,
		`rap_stage_duration_us_bucket{stage="scan",le="+Inf"} 1`,
		`rap_stage_duration_us_count{stage="cache_lookup"}`,
		`rap_stage_duration_us_count{stage="queue_wait"} 1`,
		`rap_stage_duration_us_count{stage="body_read"} 1`,
		`rap_stage_duration_us_count{stage="encode"} 1`,
		"rap_scans_total 1",
		"rap_scan_matches_total 2",
		"rap_prefilter_dirty_blocks_total 0",
		`# TYPE rap_reconfig_updates_total counter`,
		"rap_reconfig_updates_total 0",
		"rap_cache_misses_total 1",
		`rap_program_scans_total{program="` + comp.ProgramID + `"} 1`,
		"rap_build_info{",
		"rap_process_uptime_seconds",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A hot-swap moves the reconfig counters and the apply-stage histogram.
	body, _ = json.Marshal(Ruleset{Patterns: []string{"dog"}})
	var upd UpdateResult
	if resp := doJSON(t, client, "PUT", srv.URL+"/programs/"+comp.ProgramID, body, &upd); resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	req, _ = http.NewRequest("GET", srv.URL+"/metrics", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rap_reconfig_updates_total 1",
		`rap_stage_duration_us_count{stage="reconfig_apply"} 1`,
		"rap_reconfig_stall_window_cycles_count 1",
		"rap_reconfig_delta_size_bytes_count 1",
		`rap_program_generation{program="` + comp.ProgramID + `"} 1`,
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("/metrics after update missing %q", want)
		}
	}

	// /stats: no-store plus build identity.
	req, _ = http.NewRequest("GET", srv.URL+"/stats", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/stats Cache-Control = %q", cc)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Build.GoVersion == "" {
		t.Error("/stats build info missing go version")
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("/stats uptime = %v", st.UptimeSeconds)
	}
	if st.Stages["scan"].Count != 1 {
		t.Errorf("/stats scan stage count = %d, want 1", st.Stages["scan"].Count)
	}
}

// lockedWriter serializes writes so the slog handler and the test's
// reads cannot race on the buffer.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// scanResponse and feedResponse are the scan and feed bodies as a generic
// JSON client reads them; the server writes them with appendMatchBody.
type scanResponse struct {
	Count   int         `json:"count"`
	Matches []matchJSON `json:"matches"`
}

type feedResponse struct {
	Count   int         `json:"count"`
	Offset  int         `json:"offset"`
	Matches []matchJSON `json:"matches"`
}

func fromJSON(ms []matchJSON) []refmatch.Match {
	out := make([]refmatch.Match, len(ms))
	for i, m := range ms {
		out[i] = refmatch.Match{Pattern: m.Pattern, End: m.End}
	}
	return out
}

func TestHTTPErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	var e errorResponse
	if resp := doJSON(t, client, "POST", srv.URL+"/programs/deadbeef/scan", []byte("x"), &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("scan unknown program: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, client, "POST", srv.URL+"/sessions/none/data", []byte("x"), &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("feed unknown session: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, client, "DELETE", srv.URL+"/sessions/none", nil, &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("close unknown session: status %d", resp.StatusCode)
	}
	body, _ := json.Marshal(Ruleset{Patterns: []string{"("}})
	if resp := doJSON(t, client, "POST", srv.URL+"/programs", body, &e); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad pattern: status %d", resp.StatusCode)
	}
	body, _ = json.Marshal(Ruleset{})
	if resp := doJSON(t, client, "POST", srv.URL+"/programs", body, &e); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty patterns: status %d", resp.StatusCode)
	}
	var h map[string]string
	if resp := doJSON(t, client, "GET", srv.URL+"/healthz", nil, &h); resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Errorf("healthz: %d %v", resp.StatusCode, h)
	}
}

// TestRequestBodyTrailingBytes: a JSON request body is one value, as
// json.Unmarshal reads it. Compile, update and open-session each refuse a
// body with anything but white space after the value with 400, and do
// nothing; the same body ending in a newline is served.
func TestRequestBodyTrailingBytes(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	compile := []byte(`{"patterns":["abc"]}`)
	var e errorResponse
	if resp := doJSON(t, client, "POST", srv.URL+"/v1/programs", append(compile, " trailing"...), &e); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("compile with trailing bytes: status %d", resp.StatusCode)
	}
	if _, ok := svc.Program(ProgramKey([]string{"abc"}, CompileOptions{})); ok {
		t.Fatal("a refused compile request compiled its program")
	}
	var comp compileResponse
	if resp := doJSON(t, client, "POST", srv.URL+"/v1/programs", append(compile, "\n"...), &comp); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile ending in a newline: status %d", resp.StatusCode)
	}

	update := []byte(`{"patterns":["abd"]}`)
	if resp := doJSON(t, client, "PUT", srv.URL+"/v1/programs/"+comp.ProgramID, append(update, `{"patterns":["x"]}`...), &e); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("update with a second value: status %d", resp.StatusCode)
	}
	if p, _ := svc.Program(comp.ProgramID); p.Generation != 0 {
		t.Errorf("a refused update swapped the program to generation %d", p.Generation)
	}
	if resp := doJSON(t, client, "PUT", srv.URL+"/v1/programs/"+comp.ProgramID, append(update, " \n"...), nil); resp.StatusCode != http.StatusOK {
		t.Errorf("update ending in white space: status %d", resp.StatusCode)
	}

	open := []byte(`{"program_id":"` + comp.ProgramID + `"}`)
	if resp := doJSON(t, client, "POST", srv.URL+"/v1/sessions", append(open, "]"...), &e); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("open session with trailing bytes: status %d", resp.StatusCode)
	}
	if n := svc.Stats().Sessions.Opened; n != 0 {
		t.Errorf("a refused open-session request opened %d sessions", n)
	}
	var sess openSessionResponse
	if resp := doJSON(t, client, "POST", srv.URL+"/v1/sessions", append(open, "\n"...), &sess); resp.StatusCode != http.StatusOK || sess.SessionID == "" {
		t.Errorf("open session ending in a newline: status %d, %+v", resp.StatusCode, sess)
	}
}

// TestNodeBodyLimits holds a bare node to the statuses a cluster gateway
// answers (TestProxyBodyLimits): a body whose Content-Length is over the
// limit is 413 on every route that reads one, refused before a byte is
// read; a body shorter than its Content-Length is 400; and a chunked JSON
// body over the limit is 413 as a chunked scan body is.
func TestNodeBodyLimits(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	h := svc.Handler()
	prog, _, err := svc.Compile(context.Background(), []string{"needle"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sid, err := svc.OpenSession(context.Background(), prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, path string, body io.Reader, length int64) int {
		req := httptest.NewRequest(method, path, body)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, rt := range []struct {
		method, path        string
		tooLarge, truncated int
	}{
		{"POST", "/v1/programs", 413, 400},
		{"PUT", "/v1/programs/" + prog.ID, 413, 400},
		{"POST", "/v1/programs/" + prog.ID + "/scan", 413, 400},
		{"POST", "/v1/sessions", 413, 400},
		{"POST", "/v1/sessions/" + sid + "/data", 413, 400},
		{"DELETE", "/v1/sessions/sess-999", 404, 404},
	} {
		if got := serve(rt.method, rt.path, strings.NewReader("needle"), input.MaxBody+1); got != rt.tooLarge {
			t.Errorf("%s %s with Content-Length over the limit = %d, want %d", rt.method, rt.path, got, rt.tooLarge)
		}
		if got := serve(rt.method, rt.path, strings.NewReader("needle"), 100); got != rt.truncated {
			t.Errorf("%s %s with 6 bytes under Content-Length 100 = %d, want %d", rt.method, rt.path, got, rt.truncated)
		}
	}
	if testing.Short() {
		return
	}
	if got := serve("POST", "/v1/programs", io.MultiReader(strings.NewReader(`{"patterns":["`), zeros{}), -1); got != 413 {
		t.Errorf("compile with a chunked body over the limit = %d, want 413", got)
	}
}

// zeros reads as an endless run of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}
