package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/qos"
	"repro/internal/workload"
)

// keyRuleset is the 24-literal ruleset of experiments/scan.go and the
// ledger's literal workloads, plus one end-anchored pattern.
func keyRuleset() []string {
	var patterns []string
	for i := 0; i < 24; i++ {
		patterns = append(patterns, fmt.Sprintf(".key%02d.", i))
	}
	return append(patterns, "fin[0-9]$")
}

// fillerBody is n bytes of 'i'..'z', which no .keyNN. literal matches.
func fillerBody(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	body := make([]byte, n)
	for i := range body {
		body[i] = byte('i' + r.Intn(18))
	}
	return body
}

// hideLength reads like its reader but is no *bytes.Reader, so a client
// request carrying it is sent with chunked transfer coding.
type hideLength struct{ io.Reader }

// TestScanChunkBoundaries holds a one-shot scan streamed in scanChunk
// pieces to the whole-buffer answer, byte for byte: bodies of one byte
// under, at and over a chunk and of three chunks and 17 bytes, each with a
// pattern's literal planted across every chunk boundary and an
// end-anchored match at its last byte, sent with a Content-Length and with
// chunked transfer, against the literal ruleset and Snort@0.2.
func TestScanChunkBoundaries(t *testing.T) {
	snort := workload.MustGenerate("Snort", 0.2, 1)
	rulesets := []struct {
		name     string
		patterns []string
		plant    func(r *rand.Rand) []byte
		filler   func(n int) []byte
	}{
		{"keyNN", keyRuleset(),
			func(r *rand.Rand) []byte { return []byte(fmt.Sprintf("key%02d", r.Intn(24))) },
			func(n int) []byte { return fillerBody(n, 5) }},
		{"snort@0.2", append(append([]string(nil), snort.Patterns...), "fin[0-9]$"),
			func(r *rand.Rand) []byte {
				for {
					if ex := workload.Exemplar(snort.Patterns[r.Intn(len(snort.Patterns))], r); len(ex) >= 2 && len(ex) < 256 {
						return ex
					}
				}
			},
			func(n int) []byte { return snort.Input(n, 5) }},
	}
	svc := New(Config{Workers: 2})
	defer svc.Close()
	lengths := map[string]int64{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lengths[r.Header.Get("X-Case")] = r.ContentLength
		svc.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	for _, rs := range rulesets {
		prog, _, err := svc.Compile(context.Background(), rs.patterns, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fin := len(rs.patterns) - 1
		r := rand.New(rand.NewSource(9))
		for _, size := range []int{scanChunk - 1, scanChunk, scanChunk + 1, 3*scanChunk + 17} {
			body := rs.filler(size)
			copy(body[size-4:], "fin7") // across the boundary of a chunk and a byte
			var planted []int           // the last byte of each literal planted
			for b := scanChunk; b < size-4; b += scanChunk {
				lit := rs.plant(r)
				at := b - len(lit)/2 // straddles the boundary
				copy(body[at:], lit)
				planted = append(planted, at+len(lit)-1)
			}
			whole := prog.Matcher.Scan(body)
			ends := map[int]bool{}
			for _, m := range whole {
				ends[m.End] = true
			}
			for _, end := range planted {
				// A .keyNN. match ends a byte after its literal.
				if !ends[end] && !ends[end+1] {
					t.Fatalf("%s, %d bytes: no match ends at %d, so the case tests nothing", rs.name, size, end)
				}
			}
			if last := whole[len(whole)-1]; last.Pattern != fin || last.End != size-1 {
				t.Fatalf("%s, %d bytes: the last match is %+v, not the end-anchored one", rs.name, size, last)
			}
			want := appendMatchBody(nil, -1, whole)
			for _, chunked := range []bool{false, true} {
				name := fmt.Sprintf("%s/%d/chunked=%v", rs.name, size, chunked)
				var rd io.Reader = bytes.NewReader(body)
				if chunked {
					rd = hideLength{rd}
				}
				req, err := http.NewRequest("POST", srv.URL+"/v1/programs/"+prog.ID+"/scan", rd)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("X-Case", name)
				resp, err := srv.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				wantLen := int64(size)
				if chunked {
					wantLen = -1 // chunked transfer
				}
				if lengths[name] != wantLen {
					t.Errorf("%s: the server saw Content-Length %d, want %d", name, lengths[name], wantLen)
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("%s: status %d, %d response bytes differ from the whole-buffer answer's %d",
						name, resp.StatusCode, len(got), len(want))
				}
			}
		}
	}
}

// TestScanMemoryBound: a scan of an 8 MiB body through Handler allocates
// less than two chunks of heap, with a Content-Length and without: the
// request holds one chunk, not its body.
func TestScanMemoryBound(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	h := svc.Handler()
	prog, _, err := svc.Compile(context.Background(), keyRuleset(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body := fillerBody(8<<20, 1)
	for _, length := range []int64{int64(len(body)), -1} {
		scan := func() {
			req := httptest.NewRequest("POST", "/v1/programs/"+prog.ID+"/scan", bytes.NewReader(body))
			req.ContentLength = length
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || rec.Body.String() != "{\"count\":0,\"matches\":[]}\n" {
				t.Fatalf("Content-Length %d: %d %s", length, rec.Code, rec.Body)
			}
		}
		scan() // the pools fill
		const scans = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < scans; i++ {
			scan()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / scans; per >= 2*scanChunk {
			t.Errorf("Content-Length %d: a scan of %d bytes allocates %d bytes, want under two chunks (%d)",
				length, len(body), per, 2*scanChunk)
		}
	}
}

// TestScanRefusalsStayWhole: a scan of a body longer than one chunk is
// refused whole or finished. With a Content-Length, a 429 from the
// tenant's bucket and a 503 from a closed service scan nothing and charge
// nothing. A chunked body over the limit is a 413 with the error body
// alone. A client gone midway, with a Content-Length or chunked, is a 400
// that leaves no task queued, no queue slot kept and no scan counted; the
// next long scan, on a one-slot queue, gets through. A tenant whose burst
// is far below the body is still served a long body, chunked or not, and
// pays it off as debt.
func TestScanRefusalsStayWhole(t *testing.T) {
	clk := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	svc := New(Config{Workers: 1, QueueDepth: 1, Clock: clk,
		QoS: qos.Config{Tenants: map[string]qos.Limits{"small": {ScanBytesPerSec: 10, BurstBytes: 1 << 10}}}})
	h := svc.Handler()
	prog, _, err := svc.Compile(context.Background(), keyRuleset(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(tenant string, body io.Reader, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/programs/"+prog.ID+"/scan", body)
		req.ContentLength = length
		if tenant != "" {
			req.Header.Set(qos.DefaultHeader, tenant)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	errorOnly := func(what string, rec *httptest.ResponseRecorder, status int) {
		t.Helper()
		var e errorResponse
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if rec.Code != status || dec.Decode(&e) != nil || e.Error == "" || dec.More() {
			t.Errorf("%s: %d %q, want %d with an error body alone", what, rec.Code, rec.Body, status)
		}
	}
	level := func() int64 { return svc.QoS().Tenant("small").Snapshot().BucketLevelBytes }
	var scans, scanned int64 // the scans served so far, and their bytes
	nothingScanned := func(what string) {
		t.Helper()
		if st := svc.Stats(); st.Scans != scans || st.ScanBytes != scanned || slotsTaken(svc) != 0 || svc.pool.queued.Value() != 0 {
			t.Errorf("after the %s: %d scans of %d bytes counted (want %d of %d), %d queue slots taken, %d tasks queued; want none",
				what, st.Scans, st.ScanBytes, scans, scanned, slotsTaken(svc), svc.pool.queued.Value())
		}
	}
	big := fillerBody(3*scanChunk+17, 2)
	served := func(what string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusOK || rec.Body.String() != "{\"count\":0,\"matches\":[]}\n" {
			t.Errorf("%s: %d %q, want 200 and no matches", what, rec.Code, rec.Body)
		}
		scans, scanned = scans+1, scanned+int64(len(big))
	}

	// Drain the tenant's bucket by a task of its own, then offer a long
	// body: refused before its first chunk runs.
	drainedDone := make(chan struct{})
	if err := svc.pool.submitTask(1, svc.QoS().Tenant("small"), 1, 1<<10, whole, func() { close(drainedDone) }); err != nil {
		t.Fatal(err)
	}
	<-drainedDone
	drained, submitted := level(), svc.pool.submitted.Value()
	errorOnly("a long scan over the bucket", serve("small", bytes.NewReader(big), int64(len(big))), http.StatusTooManyRequests)
	if level() != drained || svc.pool.submitted.Value() != submitted {
		t.Errorf("the refused scan moved the bucket %d -> %d and submitted %d tasks", drained, level(), svc.pool.submitted.Value()-submitted)
	}
	nothingScanned("429")

	// Refilled, the same bucket, 1 KiB deep, serves the long body whole,
	// with a Content-Length and chunked, and is left in its debt.
	for _, length := range []int64{int64(len(big)), -1} {
		clk.Advance(time.Duration(2*len(big)/10) * time.Second)
		served(fmt.Sprintf("a long scan of Content-Length %d by a 1 KiB bucket", length), serve("small", bytes.NewReader(big), length))
		if want := int64(1<<10 - len(big)); level() != want {
			t.Errorf("Content-Length %d: the bucket reads %d after the scan, want %d", length, level(), want)
		}
	}
	nothingScanned("scans by a small bucket")

	if !testing.Short() {
		over := io.MultiReader(bytes.NewReader(big), zeros{})
		errorOnly("a chunked body over the limit", serve("", over, -1), http.StatusRequestEntityTooLarge)
		nothingScanned("413")
	}

	// A client gone after a chunk and a half: the first chunk is scanned,
	// the second never read whole.
	for _, length := range []int64{int64(len(big)), -1} {
		pr, pw := io.Pipe()
		go func() {
			// A write the handler cut short ends the body as the close does.
			_, _ = pw.Write(big[:scanChunk+scanChunk/2])
			pw.CloseWithError(errors.New("client gone"))
		}()
		submitted := svc.pool.submitted.Value()
		errorOnly(fmt.Sprintf("a body of Content-Length %d cut short", length), serve("", pr, length), http.StatusBadRequest)
		if n := svc.pool.submitted.Value() - submitted; n != 1 {
			t.Errorf("Content-Length %d: %d chunks scanned before the client went, want 1", length, n)
		}
		nothingScanned("400")
		// The one slot of the queue is free again.
		served(fmt.Sprintf("a long scan after a body of Content-Length %d cut short", length), serve("", bytes.NewReader(big), int64(len(big))))
	}

	svc.Close()
	errorOnly("a long scan on a closed service", serve("", bytes.NewReader(big), int64(len(big))), http.StatusServiceUnavailable)
	nothingScanned("503")
}

// slotsTaken sums the queue slots taken over svc's scan pool.
func slotsTaken(svc *Service) int {
	n := 0
	for _, sh := range svc.pool.shards {
		sh.mu.Lock()
		for _, tq := range sh.queues {
			n += tq.taken
		}
		sh.mu.Unlock()
	}
	return n
}

// TestScanKeepsItsQueueSlot: a long scan admitted to its tenant's queue
// keeps one slot between its chunks, so a queue that fills behind it
// refuses new work but never the scan's later chunks, and the scan
// finishes with the whole-buffer answer.
func TestScanKeepsItsQueueSlot(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 2})
	defer svc.Close()
	h := svc.Handler()
	prog, _, err := svc.Compile(context.Background(), keyRuleset(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body := fillerBody(3*scanChunk+17, 4)
	copy(body[2*scanChunk-3:], "key05") // a match in the third chunk
	want := appendMatchBody(nil, -1, prog.Matcher.Scan(body))
	ten := svc.QoS().Tenant("t")
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for _, length := range []int64{int64(len(body)), -1} {
		pr, pw := io.Pipe()
		done := make(chan *httptest.ResponseRecorder)
		go func() {
			req := httptest.NewRequest("POST", "/v1/programs/"+prog.ID+"/scan", pr)
			req.ContentLength = length
			req.Header.Set(qos.DefaultHeader, "t")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			done <- rec
		}()
		// The first chunk and the byte after it: the scan is admitted and
		// its first chunk runs, then it waits on the client.
		if _, err := pw.Write(body[:scanChunk+1]); err != nil {
			t.Fatal(err)
		}
		waitFor("the first chunk to run", func() bool { return slotsTaken(svc) == 1 && svc.pool.queued.Value() == 0 })
		// Fill the queue: a task that holds the worker, and one behind it.
		gate, started := make(chan struct{}), make(chan struct{})
		open := sync.OnceFunc(func() { close(gate) })
		defer open() // a failed wait leaves no worker held
		for _, run := range []func(){func() { close(started); <-gate }, func() {}} {
			if err := svc.pool.submitTask(1, ten, 1, noCharge, whole, run); err != nil {
				t.Fatal(err)
			}
			<-started
		}
		if err := svc.pool.submitTask(1, ten, 1, noCharge, whole, func() {}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("Content-Length %d: a third task was %v, want ErrQueueFull", length, err)
		}
		// The rest of the body: the second chunk joins the full queue.
		go func() {
			_, _ = pw.Write(body[scanChunk+1:])
			pw.Close()
		}()
		waitFor("the second chunk to queue", func() bool { return svc.pool.queued.Value() == 2 })
		open()
		rec := <-done
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("Content-Length %d: %d %q, want 200 %q", length, rec.Code, rec.Body, want)
		}
		if n := slotsTaken(svc); n != 0 {
			t.Errorf("Content-Length %d: %d queue slots taken after the scan, want 0", length, n)
		}
	}
}

// TestScanStagesOncePerRequest: a scan of four chunks observes body_read,
// queue_wait and scan once each, and its scan span counts the chunks.
func TestScanStagesOncePerRequest(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	h := svc.Handler()
	prog, _, err := svc.Compile(context.Background(), keyRuleset(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body := fillerBody(3*scanChunk+17, 3)
	for _, length := range []int64{int64(len(body)), -1} {
		req := httptest.NewRequest("POST", "/v1/programs/"+prog.ID+"/scan", bytes.NewReader(body))
		req.ContentLength = length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("Content-Length %d: %d %s", length, rec.Code, rec.Body)
		}
	}
	for stage, n := range map[string]int64{
		"body_read":  svc.stageBodyRead.Snapshot().Count,
		"queue_wait": svc.stageQueueWait.Snapshot().Count,
		"scan":       svc.stageScan.Snapshot().Count,
	} {
		if n != 2 {
			t.Errorf("%s observed %d times over two requests, want 2", stage, n)
		}
	}
	traces := svc.tracer.Traces()
	if len(traces) != 2 {
		t.Fatalf("%d traces, want 2", len(traces))
	}
	for _, tr := range traces {
		counts := map[string]int{}
		for _, sp := range tr.Spans {
			counts[sp.Name]++
			if sp.Name == "scan" && sp.Attrs["chunks"] != "4" {
				t.Errorf("scan span attrs %v, want chunks 4", sp.Attrs)
			}
		}
		for _, name := range []string{"body_read", "queue_wait", "scan", "encode"} {
			if counts[name] != 1 {
				t.Errorf("trace %s: %d %s spans, want 1 (%v)", tr.TraceID, counts[name], name, tr.Spans)
			}
		}
	}
}
