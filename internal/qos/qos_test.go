package qos

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func testRegistry(cfg Config) (*Registry, *clock.Manual) {
	clk := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	return NewRegistryOn(cfg, clk.Now), clk
}

func TestBucketRefillBoundaries(t *testing.T) {
	r, clk := testRegistry(Config{Tenants: map[string]Limits{
		"t": {ScanBytesPerSec: 1000, BurstBytes: 1000},
	}})
	ten := r.Tenant("t")

	// A fresh bucket starts full: exactly one burst passes...
	if err := ten.AdmitScan(1000); err != nil {
		t.Fatalf("full-bucket admit: %v", err)
	}
	// ...and the next byte is rejected with the refill time.
	err := ten.AdmitScan(1)
	if !errors.Is(err, ErrOverLimit) {
		t.Fatalf("drained admit err = %v, want ErrOverLimit", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err %T is not *LimitError", err)
	}
	if le.Resource != ResourceScanBytes || le.Tenant != "t" {
		t.Errorf("LimitError = %+v", le)
	}
	if want := time.Millisecond; le.RetryAfter != want {
		t.Errorf("RetryAfter = %v, want %v (1 byte at 1000 B/s)", le.RetryAfter, want)
	}

	// Refill is linear: after exactly 500ms, 500 bytes pass and 501 do not.
	clk.Advance(500 * time.Millisecond)
	if err := ten.AdmitScan(500); err != nil {
		t.Fatalf("boundary admit of exactly the refilled amount: %v", err)
	}
	if err := ten.AdmitScan(1); err == nil {
		t.Fatal("admit beyond the refilled amount should fail")
	}

	// The bucket never refills past its burst.
	clk.Advance(time.Hour)
	if err := ten.AdmitScan(1000); err != nil {
		t.Fatalf("admit after long idle: %v", err)
	}
	if err := ten.AdmitScan(1); err == nil {
		t.Fatal("burst cap should bound a long idle refill")
	}

	if got := ten.Snapshot().Throttled[ResourceScanBytes]; got != 3 {
		t.Errorf("throttled[scan_bytes] = %d, want 3", got)
	}
}

func TestBucketOversizedBodyRunsAsDebt(t *testing.T) {
	r, clk := testRegistry(Config{Tenants: map[string]Limits{
		"t": {ScanBytesPerSec: 1000, BurstBytes: 1000},
	}})
	ten := r.Tenant("t")

	// A body larger than the burst is admitted at full bucket (debt)...
	if err := ten.AdmitScan(3000); err != nil {
		t.Fatalf("oversized admit at full bucket: %v", err)
	}
	if level := ten.Snapshot().BucketLevelBytes; level != -2000 {
		t.Errorf("bucket level = %d, want -2000 (debt)", level)
	}
	// ...and the debt delays the next request until it is paid off:
	// 2000 owed + 1 needed at 1000 B/s = 2.001s.
	err := ten.AdmitScan(1)
	retry, ok := RetryAfterOf(err)
	if !ok {
		t.Fatalf("err = %v, want limit error", err)
	}
	if want := 2001 * time.Millisecond; retry != want {
		t.Errorf("RetryAfter = %v, want %v", retry, want)
	}
	clk.Advance(2001 * time.Millisecond)
	if err := ten.AdmitScan(1); err != nil {
		t.Fatalf("admit after paying off debt: %v", err)
	}
}

func TestSessionAndCompileSlots(t *testing.T) {
	r, _ := testRegistry(Config{Tenants: map[string]Limits{
		"t": {MaxSessions: 2, CompileSlots: 1},
	}})
	ten := r.Tenant("t")

	if err := ten.AcquireSession(); err != nil {
		t.Fatal(err)
	}
	if err := ten.AcquireSession(); err != nil {
		t.Fatal(err)
	}
	if err := ten.AcquireSession(); !errors.Is(err, ErrOverLimit) {
		t.Fatalf("third session err = %v, want ErrOverLimit", err)
	}
	ten.ReleaseSession()
	if err := ten.AcquireSession(); err != nil {
		t.Fatalf("session after release: %v", err)
	}

	if err := ten.AcquireCompile(); err != nil {
		t.Fatal(err)
	}
	err := ten.AcquireCompile()
	var le *LimitError
	if !errors.As(err, &le) || le.Resource != ResourceCompileSlots {
		t.Fatalf("second compile err = %v, want compile_slots limit", err)
	}
	ten.ReleaseCompile()
	if err := ten.AcquireCompile(); err != nil {
		t.Fatalf("compile after release: %v", err)
	}
	if snap := ten.Snapshot(); snap.Compiles != 2 || snap.CompilesInFlight != 1 {
		t.Errorf("compiles = %d in flight = %d, want 2 and 1", snap.Compiles, snap.CompilesInFlight)
	}
}

func TestRegistryDefaultsAndReload(t *testing.T) {
	r, _ := testRegistry(Config{
		Default: Limits{Weight: 2},
		Tenants: map[string]Limits{"gold": {Weight: 8}},
	})

	if got := r.Tenant("").Name(); got != Anonymous {
		t.Errorf("empty tenant name resolves to %q, want %q", got, Anonymous)
	}
	if w := r.Tenant("newcomer").Weight(); w != 2 {
		t.Errorf("default weight = %d, want 2", w)
	}
	if w := r.Tenant("gold").Weight(); w != 8 {
		t.Errorf("gold weight = %d, want 8", w)
	}

	// Reload re-limits live tenants in place; accounting survives.
	r.Tenant("gold").AccountScan(100, 1)
	r.SetConfig(Config{
		Header:  "X-Team",
		Default: Limits{},
		Tenants: map[string]Limits{"gold": {Weight: 3, MaxSessions: 1}},
	})
	if w := r.Tenant("gold").Weight(); w != 3 {
		t.Errorf("post-reload gold weight = %d, want 3", w)
	}
	if w := r.Tenant("newcomer").Weight(); w != 1 {
		t.Errorf("post-reload default weight = %d, want 1", w)
	}
	if r.Header() != "X-Team" {
		t.Errorf("Header = %q", r.Header())
	}
	if got := r.Tenant("gold").Snapshot().ScanBytes; got != 100 {
		t.Errorf("accounting lost across reload: scan bytes = %d", got)
	}

	snaps := r.Snapshot()
	if len(snaps) != 3 { // anonymous, gold, newcomer
		t.Fatalf("snapshot count = %d, want 3", len(snaps))
	}
	if snaps[1].Name != "gold" {
		t.Errorf("snapshots not sorted: %q", snaps[1].Name)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "qos.json")
	if err := os.WriteFile(good, []byte(`{
		"header": "X-Team",
		"default": {"weight": 1, "scan_bytes_per_sec": 1048576},
		"tenants": {"gold": {"weight": 4, "compile_slots": 2}}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Header != "X-Team" || cfg.Tenants["gold"].Weight != 4 || cfg.Tenants["gold"].CompileSlots != 2 {
		t.Errorf("cfg = %+v", cfg)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"tenants": {"x": {"wieght": 4}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("typo'd field should be rejected")
	}

	neg := filepath.Join(dir, "neg.json")
	if err := os.WriteFile(neg, []byte(`{"default": {"scan_bytes_per_sec": -1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(neg); err == nil {
		t.Fatal("negative rate should be rejected")
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := WithTenant(context.Background(), "acme")
	if got := TenantName(ctx); got != "acme" {
		t.Errorf("TenantName = %q", got)
	}
	if got := TenantName(context.Background()); got != "" {
		t.Errorf("unset TenantName = %q", got)
	}
}

func TestConcurrentAdmission(t *testing.T) {
	// Race-detector exercise: many goroutines against one tenant.
	r := NewRegistry(Config{Tenants: map[string]Limits{
		"t": {ScanBytesPerSec: 1 << 30, MaxSessions: 4, CompileSlots: 2, Weight: 3},
	}})
	ten := r.Tenant("t")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if ten.AdmitScan(64) == nil {
					ten.AccountScan(64, 0)
				}
				if ten.AcquireSession() == nil {
					ten.ReleaseSession()
				}
				if ten.AcquireCompile() == nil {
					ten.ReleaseCompile()
				}
				ten.ObserveQueueWait(time.Microsecond)
				_ = ten.Snapshot()
				_ = ten.Weight()
			}
		}()
	}
	wg.Wait()
	if got := ten.Snapshot().SessionsOpen; got != 0 {
		t.Errorf("sessions open after churn = %d", got)
	}
}
