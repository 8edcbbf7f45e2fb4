package qos

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/input"
)

const (
	// DefaultHeader is the HTTP header carrying the tenant identity.
	DefaultHeader = "X-RAP-Tenant"
	// Anonymous is the tenant requests without an identity header land on.
	Anonymous = "anonymous"
	// MaxUnlistedTenants bounds the tenants a Registry makes for names
	// its configuration does not list. Any client can send a new
	// identity, and each tenant holds accounting, queues and metric
	// series, so later unlisted names are served as Anonymous.
	MaxUnlistedTenants = 64

	// defaultBurstBytes is the bucket capacity when a rate is configured
	// without an explicit burst: one second of tokens, floored at 64 KiB
	// so small rates still admit a realistic scan body.
	defaultBurstBytes = 64 << 10
)

// Limits bounds one tenant's slice of the engine. The zero value is
// unlimited with weight 1.
type Limits struct {
	// Weight is the tenant's share of scan bandwidth under contention:
	// the worker pool's deficit-round-robin queues serve backlogged
	// tenants in proportion to it. <= 0 means 1.
	Weight int `json:"weight,omitempty"`
	// ScanBytesPerSec rate-limits admitted scan/feed bytes with a token
	// bucket. 0 = unlimited.
	ScanBytesPerSec int64 `json:"scan_bytes_per_sec,omitempty"`
	// BurstBytes is the bucket capacity; 0 takes one second of rate,
	// floored at 64 KiB.
	BurstBytes int64 `json:"burst_bytes,omitempty"`
	// MaxSessions caps the tenant's concurrently open streaming
	// sessions. 0 = unlimited (the global Config.MaxSessions still
	// applies).
	MaxSessions int `json:"max_sessions,omitempty"`
	// CompileSlots is the compile-slot budget: the tenant's concurrently
	// running ruleset compiles (POST/PUT programs). 0 = unlimited.
	CompileSlots int `json:"compile_slots,omitempty"`
}

// withDefaults normalizes a Limits value.
func (l Limits) withDefaults() Limits {
	if l.Weight <= 0 {
		l.Weight = 1
	}
	if l.ScanBytesPerSec > 0 && l.BurstBytes <= 0 {
		l.BurstBytes = l.ScanBytesPerSec
		if l.BurstBytes < defaultBurstBytes {
			l.BurstBytes = defaultBurstBytes
		}
	}
	return l
}

// validate rejects nonsensical limits.
func (l Limits) validate() error {
	if l.ScanBytesPerSec < 0 {
		return fmt.Errorf("scan_bytes_per_sec %d < 0", l.ScanBytesPerSec)
	}
	if l.BurstBytes < 0 {
		return fmt.Errorf("burst_bytes %d < 0", l.BurstBytes)
	}
	if l.MaxSessions < 0 {
		return fmt.Errorf("max_sessions %d < 0", l.MaxSessions)
	}
	if l.CompileSlots < 0 {
		return fmt.Errorf("compile_slots %d < 0", l.CompileSlots)
	}
	return nil
}

// Config is the tenant configuration: the identity header, the default
// limits applied to tenants seen for the first time, and per-tenant
// overrides. It is the JSON schema of the rapserve -qos-config file:
//
//	{
//	  "header": "X-RAP-Tenant",
//	  "default": {"weight": 1, "scan_bytes_per_sec": 16777216},
//	  "tenants": {
//	    "gold":  {"weight": 4, "compile_slots": 4},
//	    "bronze": {"weight": 1, "scan_bytes_per_sec": 1048576, "max_sessions": 16}
//	  }
//	}
type Config struct {
	Header  string            `json:"header,omitempty"`
	Default Limits            `json:"default"`
	Tenants map[string]Limits `json:"tenants,omitempty"`
}

// Validate checks every limit set in the config.
func (c Config) Validate() error {
	if err := c.Default.validate(); err != nil {
		return fmt.Errorf("qos: default limits: %w", err)
	}
	for name, l := range c.Tenants {
		if name == "" {
			return fmt.Errorf("qos: empty tenant name")
		}
		if err := l.validate(); err != nil {
			return fmt.Errorf("qos: tenant %q: %w", name, err)
		}
	}
	return nil
}

// LoadFile reads and validates a tenant-config JSON file. Unknown fields
// are errors, so a typo in a limit name cannot silently mean "unlimited".
func LoadFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("qos: %w", err)
	}
	defer f.Close()
	cfg, err := parse(f)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// parse reads one config (input.DecodeConfig) that Validate accepts.
func parse(r io.Reader) (Config, error) {
	var c Config
	if err := input.DecodeConfig(r, &c); err != nil {
		return Config{}, fmt.Errorf("qos: %w", err)
	}
	return c, c.Validate()
}

// tenantKey is the context key carrying the tenant identity.
type tenantKey struct{}

// WithTenant returns a context carrying the tenant identity. The HTTP
// layer attaches the identity-header value; direct API users may attach
// any name. An empty name means Anonymous.
func WithTenant(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, tenantKey{}, name)
}

// TenantName extracts the tenant identity from ctx, or "" when unset.
func TenantName(ctx context.Context) string {
	name, _ := ctx.Value(tenantKey{}).(string)
	return name
}
