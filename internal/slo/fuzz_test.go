package slo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/input"
)

// TestParseOneBoundedValue: the parser LoadFile runs refuses bytes after
// the JSON value and input over input.MaxConfig, and takes trailing white
// space.
func TestParseOneBoundedValue(t *testing.T) {
	for _, in := range []string{
		`{"objectives":{}} {"bogus":1}`,
		`{} x`,
		`{}` + strings.Repeat(" ", input.MaxConfig),
	} {
		if _, err := parse(strings.NewReader(in)); err == nil {
			t.Errorf("parse accepted %.60q (%d bytes)", in, len(in))
		}
	}
	if _, err := parse(strings.NewReader("{}\n")); err != nil {
		t.Errorf("an empty config and a newline: %v", err)
	}
}

// FuzzSLOConfig fuzzes the SLO-config parser: it never panics, a config it
// accepts passes Validate, and json.Marshal of an accepted config parses
// back to a config that marshals to the same bytes.
func FuzzSLOConfig(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"objectives":{"request_latency":{"kind":"latency","target":0.99,"threshold_us":250000,"fast":{"duration":"5m","burn":14.4},"slow":{"duration":"1h","burn":6}},"error_rate":{"disabled":true}}}`))
	f.Add([]byte(`{"objectives":{"x":{"kind":"ratio","target":0.5,"fast":{"duration":60000000000,"burn":1},"slow":{"duration":"2m","burn":1}}}}`))
	f.Add([]byte(`{"admission":{"enabled":true,"objective":"missing"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted a config Validate refuses: %v", err)
		}
		out, err := json.Marshal(c)
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
