package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/refmatch"
	"repro/internal/simdscan"
	"repro/internal/telemetry"
)

func sortMatches(ms []refmatch.Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
}

func matchesEqual(a, b []refmatch.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompileCacheHitAndKeying(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	p1, hit, err := s.Compile(context.Background(), []string{"cat", "ab{10,20}c"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first compile reported as cache hit")
	}
	p2, hit, err := s.Compile(context.Background(), []string{"cat", "ab{10,20}c"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("identical ruleset was not a cache hit")
	}
	if p1 != p2 {
		t.Error("cache hit returned a different program object")
	}
	// Explicit defaults hash like the zero options.
	_, hit, err = s.Compile(context.Background(), []string{"cat", "ab{10,20}c"}, CompileOptions{UnfoldThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("default-equivalent options missed the cache")
	}
	// Different options are a different program.
	p3, hit, err := s.Compile(context.Background(), []string{"cat", "ab{10,20}c"}, CompileOptions{UnfoldThreshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	if hit || p3.ID == p1.ID {
		t.Error("distinct options collided")
	}
	st := s.Stats()
	if st.Cache.Misses != 2 || st.Cache.Hits != 2 {
		t.Errorf("cache stats = %+v, want 2 misses / 2 hits", st.Cache)
	}
}

func TestSingleFlightCompilesOnce(t *testing.T) {
	c := newProgramCache(8)
	var builds atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.getOrCompile("k", func() (*Program, error) {
				builds.Add(1)
				<-release
				return &Program{ID: "k"}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Let one goroutine enter the build and the rest pile up on it, then
	// release. Even without precise sequencing, builds must never exceed
	// the number of times the key was absent — i.e. exactly 1 here, since
	// the first build completes successfully and populates the cache.
	release <- struct{}{}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	if c.hits.Value()+c.coalesced.Value() != 15 {
		t.Errorf("hits %d + coalesced %d, want 15 total", c.hits.Value(), c.coalesced.Value())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newProgramCache(2)
	build := func(id string) func() (*Program, error) {
		return func() (*Program, error) { return &Program{ID: id}, nil }
	}
	c.getOrCompile("a", build("a"))
	c.getOrCompile("b", build("b"))
	c.getOrCompile("a", build("a")) // refresh a; b is now LRU
	c.getOrCompile("c", build("c")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if c.evictions.Value() != 1 {
		t.Errorf("evictions = %d", c.evictions.Value())
	}
}

func TestCompileErrorNotCached(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, _, err := s.Compile(context.Background(), []string{"("}, CompileOptions{}); err == nil {
		t.Fatal("expected compile error")
	}
	if _, _, err := s.Compile(context.Background(), []string{"("}, CompileOptions{}); err == nil {
		t.Fatal("expected compile error again")
	}
	st := s.Stats()
	if st.Cache.Size != 0 {
		t.Errorf("failed compile was cached: %+v", st.Cache)
	}
	if st.Cache.Misses != 2 {
		t.Errorf("misses = %d, want 2 (errors are retried, not cached)", st.Cache.Misses)
	}
}

func TestPoolBackpressure(t *testing.T) {
	p := newPool(1, 2)
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single worker.
	if err := p.submit(0, func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started
	// Fill the queue.
	for i := 0; i < 2; i++ {
		if err := p.submit(0, func() {}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := p.submit(0, func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	if p.stats().Rejected != 1 {
		t.Errorf("rejected = %d", p.stats().Rejected)
	}
	close(block)
	p.close()
	if err := p.submit(0, func() {}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close err = %v", err)
	}
}

func TestPoolFlowAffinityOrdering(t *testing.T) {
	p := newPool(4, 64)
	defer p.close()
	const perFlow = 200
	var mu sync.Mutex
	got := map[uint64][]int{}
	var wg sync.WaitGroup
	for flow := uint64(0); flow < 8; flow++ {
		for i := 0; i < perFlow; i++ {
			flow, i := flow, i
			wg.Add(1)
			// All submissions happen from this one goroutine, so each
			// flow's tasks are submitted in order; shard affinity must
			// preserve that order end to end. Retry on backpressure.
			for {
				err := p.submit(flow, func() {
					defer wg.Done()
					mu.Lock()
					got[flow] = append(got[flow], i)
					mu.Unlock()
				})
				if errors.Is(err, ErrQueueFull) {
					runtime.Gosched()
					continue
				}
				if err != nil {
					wg.Done()
					t.Fatalf("submit: %v", err)
				}
				break
			}
		}
	}
	wg.Wait()
	for flow, seq := range got {
		for i, v := range seq {
			if v != i {
				t.Fatalf("flow %d executed out of order: %v", flow, seq[:i+1])
			}
		}
	}
}

func TestServiceScanAndSessionBasics(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	prog, _, err := s.Compile(context.Background(), []string{"cat", "end$"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("a cat at the end")
	want := prog.Matcher.Scan(input)
	sortMatches(want)

	got, err := s.Scan(context.Background(), prog.ID, input)
	if err != nil {
		t.Fatal(err)
	}
	sortMatches(got)
	if !matchesEqual(got, want) {
		t.Errorf("service scan %v != direct %v", got, want)
	}

	id, err := s.OpenSession(context.Background(), prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []refmatch.Match
	for _, chunk := range [][]byte{input[:5], input[5:9], input[9:]} {
		ms, err := s.Feed(context.Background(), id, chunk)
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, ms...)
	}
	final, summary, err := s.CloseSession(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	streamed = append(streamed, final...)
	sortMatches(streamed)
	if !matchesEqual(streamed, want) {
		t.Errorf("streamed %v != direct %v", streamed, want)
	}
	if summary.Bytes != int64(len(input)) || summary.Chunks != 3 {
		t.Errorf("summary = %+v", summary)
	}
	if _, err := s.Feed(context.Background(), id, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("feed after close err = %v", err)
	}
}

func TestSessionLimit(t *testing.T) {
	s := New(Config{Workers: 1, MaxSessions: 2})
	defer s.Close()
	prog, _, err := s.Compile(context.Background(), []string{"x"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.OpenSession(context.Background(), prog.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.OpenSession(context.Background(), prog.ID); !errors.Is(err, ErrSessionLimit) {
		t.Errorf("err = %v, want ErrSessionLimit", err)
	}
}

func TestScanUnknownProgram(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Scan(context.Background(), "nope", []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if _, err := s.OpenSession(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestEvictedProgramSessionsKeepWorking(t *testing.T) {
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
	if _, _, err := s.Compile(context.Background(), []string{"cd"}, CompileOptions{}); err != nil {
		t.Fatal(err) // evicts p1
	}
	if _, ok := s.Program(p1.ID); ok {
		t.Fatal("p1 should be evicted")
	}
	ms, err := s.Feed(context.Background(), id, []byte("xabx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].End != 2 {
		t.Errorf("evicted-program session matches = %v", ms)
	}
	if _, err := s.Scan(context.Background(), p1.ID, []byte("ab")); !errors.Is(err, ErrNotFound) {
		t.Errorf("one-shot scan of evicted program err = %v", err)
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// Many goroutines hammer one service with compiles, one-shot scans
	// and streaming sessions at once; run under -race this is the
	// thread-safety acceptance test for the service layer.
	s := New(Config{Workers: 4, QueueDepth: 256})
	defer s.Close()
	prog, _, err := s.Compile(context.Background(), []string{"cat", "d{3}g", "a(x|y)*b"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("the cat saw dddg and axyxb again and again")
	want, err := s.Scan(context.Background(), prog.ID, input)
	if err != nil {
		t.Fatal(err)
	}
	sortMatches(want)

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				switch g % 3 {
				case 0: // recompile: always a cache hit
					if _, hit, err := s.Compile(context.Background(), []string{"cat", "d{3}g", "a(x|y)*b"}, CompileOptions{}); err != nil || !hit {
						errCh <- fmt.Errorf("recompile hit=%v err=%v", hit, err)
						return
					}
				case 1: // one-shot
					got, err := s.Scan(context.Background(), prog.ID, input)
					if err != nil {
						if errors.Is(err, ErrQueueFull) {
							continue // valid backpressure under load
						}
						errCh <- err
						return
					}
					sortMatches(got)
					if !matchesEqual(got, want) {
						errCh <- fmt.Errorf("one-shot diverged")
						return
					}
				case 2: // streaming in 4 chunks
					id, err := s.OpenSession(context.Background(), prog.ID)
					if err != nil {
						errCh <- err
						return
					}
					var got []refmatch.Match
					q := len(input) / 4
					ok := true
					for _, chunk := range [][]byte{input[:q], input[q : 2*q], input[2*q : 3*q], input[3*q:]} {
						ms, err := s.Feed(context.Background(), id, chunk)
						if err != nil {
							if errors.Is(err, ErrQueueFull) {
								ok = false
								break
							}
							errCh <- err
							return
						}
						got = append(got, ms...)
					}
					var final []refmatch.Match
					for {
						f, _, err := s.CloseSession(context.Background(), id)
						if errors.Is(err, ErrQueueFull) {
							continue // must not leak the session slot
						}
						if err != nil {
							errCh <- err
							return
						}
						final = f
						break
					}
					if !ok {
						continue
					}
					got = append(got, final...)
					sortMatches(got)
					if !matchesEqual(got, want) {
						errCh <- fmt.Errorf("stream diverged: %v != %v", got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if open := s.Stats().Sessions.Open; open != 0 {
		t.Errorf("%d sessions leaked", open)
	}
}

// TestPrefilterKernelAndDirtyBlocks: the program names the candidate scan
// loop it runs, which the host's CPU chooses, and the service counts the
// blocks the kernel could not clear — none on traffic without a literal
// fragment, some once literals are planted.
func TestPrefilterKernelAndDirtyBlocks(t *testing.T) {
	defer func(host bool) { simdscan.UseAVX2 = host }(simdscan.UseAVX2)
	kernels := []bool{false}
	if simdscan.UseAVX2 {
		kernels = append(kernels, true)
	}
	for _, avx2 := range kernels {
		simdscan.UseAVX2 = avx2
		t.Run(fmt.Sprint("avx2=", avx2), testPrefilterKernelAndDirtyBlocks)
	}
}

func testPrefilterKernelAndDirtyBlocks(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	prog, _, err := s.Compile(ctx, []string{".key07.", ".key19."}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kernel := "teddy fp3"
	if simdscan.UseAVX2 {
		kernel += " avx2"
	}
	if ps := prog.Stats(); ps.PrefilterTier != "teddy" || ps.PrefilterKernel != kernel {
		t.Fatalf("tier %q kernel %q, want teddy and %s", ps.PrefilterTier, ps.PrefilterKernel, kernel)
	}
	body := bytes.Repeat([]byte("zzzzzzzzyk"), 200)
	if _, err := s.Scan(ctx, prog.ID, body); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Prefilter.DirtyBlocks; got != 0 {
		t.Fatalf("clean traffic: %d dirty blocks, want 0", got)
	}
	copy(body[1000:], " key19 ")
	ms, err := s.Scan(ctx, prog.ID, body)
	if err != nil || len(ms) != 1 {
		t.Fatalf("planted scan: %v, %v; want one match", ms, err)
	}
	if got := s.Stats().Prefilter.DirtyBlocks; got != 1 { // the half-block holding the candidate
		t.Fatalf("one planted literal: %d dirty blocks, want 1", got)
	}
}

// TestPrefilterSpanAttrs: a traced scan's prefilter span in /debug/traces
// names the tier and the kernel that ran, and carries the request's
// skipped bytes and dirty blocks, which agree with the service counters.
func TestPrefilterSpanAttrs(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	var comp compileResponse
	body, _ := json.Marshal(Ruleset{Patterns: []string{".key07.", ".key19."}})
	doJSON(t, client, "POST", srv.URL+"/v1/programs", body, &comp)
	data := bytes.Repeat([]byte("zzzzzzzzyk"), 200)
	copy(data[1000:], " key19 ")
	var scan struct{ Count int }
	doJSON(t, client, "POST", srv.URL+"/v1/programs/"+comp.ProgramID+"/scan", data, &scan)
	if scan.Count != 1 {
		t.Fatalf("scan found %d matches, want 1", scan.Count)
	}

	var ring struct {
		Traces []telemetry.TraceRecord `json:"traces"`
	}
	doJSON(t, client, "GET", srv.URL+"/debug/traces", nil, &ring)
	var got map[string]string
	for _, tr := range ring.Traces {
		for _, sp := range tr.Spans {
			if sp.Name == "prefilter" {
				got = sp.Attrs
			}
		}
	}
	pf := svc.Stats().Prefilter
	prog, _ := svc.Program(comp.ProgramID)
	want := map[string]string{
		"tier":          "teddy",
		"kernel":        prog.Stats().PrefilterKernel,
		"skipped_bytes": strconv.FormatInt(pf.SkippedBytes, 10),
		"dirty_blocks":  strconv.FormatInt(pf.DirtyBlocks, 10),
	}
	if !reflect.DeepEqual(got, want) || pf.SkippedBytes == 0 || pf.DirtyBlocks == 0 {
		t.Errorf("prefilter span attrs %v, want %v with some bytes skipped and a dirty block", got, want)
	}
}
