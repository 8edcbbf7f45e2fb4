package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/pkg/rapclient"
)

// serve starts run(args) on a free loopback port and returns a client of
// it and its signal channel; at cleanup the server is interrupted and must
// drain without error.
func serve(t *testing.T, args ...string) (*rapclient.Client, chan<- os.Signal) {
	t.Helper()
	ready, stop, done := make(chan string), make(chan os.Signal), make(chan error, 1)
	go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), ready, stop) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run%v returned before listening: %v", args, err)
	}
	t.Cleanup(func() {
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Errorf("run%v: %v", args, err)
		}
	})
	return rapclient.New("http://"+addr, rapclient.WithRetries(0)), stop
}

// script drives compile -> scan -> open/feed/feed/close through the typed
// client and returns the match JSON of every step, which must not depend
// on what serves it.
func script(t *testing.T, c *rapclient.Client) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	prog, err := c.Compile(ctx, []string{"cat", "ab{10,48}c", "end$"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("a cat, a" + strings.Repeat("b", 12) + "c and a concatenated end")
	scan, err := c.Scan(ctx, prog.ID, body)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Feed(ctx, body[:13]) // cuts the bounded repetition in two
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Feed(ctx, body[13:])
	if err != nil {
		t.Fatal(err)
	}
	closed, err := sess.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Count != 4 || first.Count+second.Count+closed.Count != scan.Count || closed.Count != 1 {
		t.Errorf("scan %d matches; session %d + %d + %d at close", scan.Count, first.Count, second.Count, closed.Count)
	}
	out, err := json.Marshal([]any{prog.ID, prog.Engines, scan, first, second, closed.Count, closed.Matches,
		closed.Summary.Bytes, closed.Summary.Chunks, closed.Summary.Matches})
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestBareAndClusterNodeAnswerAlike: the one binary serves the same
// script with the same match JSON as a bare service and as a cluster node
// (no seeds: a ring of one), and drains cleanly in both modes.
func TestBareAndClusterNodeAnswerAlike(t *testing.T) {
	bare, _ := serve(t)
	node, _ := serve(t, "-id", "n1", "-gossip-interval", "50ms")
	want, got := script(t, bare), script(t, node)
	if got != want {
		t.Errorf("-id n1 answers\n %s\nbare answers\n %s", got, want)
	}
}

// TestClusterNodeReloadsQoSOnSIGHUP: a node gets rapserve's in-place
// config reload — the feature rapcluster never had.
func TestClusterNodeReloadsQoSOnSIGHUP(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "tenants.json")
	write := func(limits string) {
		if err := os.WriteFile(cfg, []byte(`{"tenants":{"bronze":{`+limits+`}}}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`"scan_bytes_per_sec":10,"burst_bytes":16`)
	c, stop := serve(t, "-id", "n1", "-qos-config", cfg)
	ctx := context.Background()
	prog, err := c.Compile(ctx, []string{"cat"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bronze, body := c.WithTenant("bronze"), bytes.Repeat([]byte("cat "), 16)
	if _, err := bronze.Scan(ctx, prog.ID, body); err != nil {
		t.Fatalf("the scan that takes the bucket into debt: %v", err)
	}
	if _, err := bronze.Scan(ctx, prog.ID, body); !errors.Is(err, rapclient.ErrOverLimit) {
		t.Fatalf("second 64-byte scan against a 16-byte burst refilled at 10 B/s: %v, want over limit", err)
	}
	write(`"weight":2`)
	// stop is unbuffered: the second send returns once the loop is back at
	// its select, that is, after the first reload has been applied.
	stop <- syscall.SIGHUP
	stop <- syscall.SIGHUP
	if res, err := bronze.Scan(ctx, prog.ID, body); err != nil || res.Count != 16 {
		t.Fatalf("after the reload lifted the limit: %v, %+v", err, res)
	}
}

func TestRefusedCommandLines(t *testing.T) {
	rules := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(rules, []byte("cat\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-id", "n1", "-f", rules}, "-f cannot be combined with -id"},
		{[]string{"-log", "xml"}, `unknown -log format "xml"`},
		{[]string{"-id", "n1", "-log", "xml"}, `unknown -log format "xml"`},
	} {
		err := run(tc.args, nil, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("run%v = %v, want a one-line error with %q (main exits 1 on it)", tc.args, err, tc.want)
		}
	}
}
