package qos

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/input"
)

// TestParseOneBoundedValue: the parser LoadFile runs refuses bytes after
// the JSON value — which DisallowUnknownFields would never see — and input
// over input.MaxConfig, and takes trailing white space.
func TestParseOneBoundedValue(t *testing.T) {
	for _, in := range []string{
		`{"default":{}} {"default":{"bogus_limit":1}} trailing garbage`,
		`{"default":{}} x`,
		`{"default":{}}` + strings.Repeat(" ", input.MaxConfig),
	} {
		if _, err := parse(strings.NewReader(in)); err == nil {
			t.Errorf("parse accepted %.60q (%d bytes)", in, len(in))
		}
	}
	if _, err := parse(strings.NewReader("{\"default\":{}}\n")); err != nil {
		t.Errorf("a config and a newline: %v", err)
	}
}

// FuzzQoSConfig fuzzes the tenant-config parser: it never panics, a config
// it accepts passes Validate, and json.Marshal of an accepted config parses
// back to a config that marshals to the same bytes.
func FuzzQoSConfig(f *testing.F) {
	f.Add([]byte(`{"default":{}}`))
	f.Add([]byte(`{"header":"X-T","default":{"weight":2,"scan_bytes_per_sec":10},"tenants":{"gold":{"weight":4,"compile_slots":2},"bronze":{"burst_bytes":16,"max_sessions":3}}}`))
	f.Add([]byte(`{"default":{}} {"default":{"bogus_limit":1}} trailing garbage`))
	f.Add([]byte(`{"default":{"max_sessions":-1},"tenants":{"":{}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted a config Validate refuses: %v", err)
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parse(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("the marshalled config %s does not parse: %v", out, err)
		}
		if back, _ := json.Marshal(again); !bytes.Equal(back, out) {
			t.Fatalf("the config changed through json.Marshal: %s, then %s", out, back)
		}
	})
}
