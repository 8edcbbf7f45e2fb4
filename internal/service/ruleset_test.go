package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"
	"unicode/utf8"

	"repro/internal/workload"
	"repro/pkg/rapclient"
)

// sent records the body of every request and answers it with 200 and {}.
type sent struct{ body []byte }

func (s *sent) RoundTrip(r *http.Request) (*http.Response, error) {
	s.body, _ = io.ReadAll(r.Body)
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader([]byte("{}")))}, nil
}

// rulesetBody returns the bytes rapclient sends for an update, and those
// Compile sends if they differ.
func rulesetBody(t *testing.T, patterns []string, opts *rapclient.CompileOptions) []byte {
	t.Helper()
	tr := new(sent)
	cl := rapclient.New("http://codec.test", rapclient.WithHTTPClient(&http.Client{Transport: tr}), rapclient.WithRetries(0))
	if _, err := cl.Compile(context.Background(), patterns, opts); err != nil {
		t.Fatal(err)
	}
	compiled := tr.body
	if _, err := cl.Update(context.Background(), "p", patterns, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compiled, tr.body) {
		t.Fatalf("Compile sent %q, Update %q", compiled, tr.body)
	}
	return tr.body
}

// FuzzRulesetCodecDifferential pins both halves of the ruleset codec to
// encoding/json. Decoder: for arbitrary bytes, DecodeRuleset returns what
// json.Unmarshal makes of them into a zero Ruleset and fails exactly when
// it fails, trailing bytes included. Encoder: for arbitrary patterns (raw
// is cut into length-prefixed strings, so any byte and invalid UTF-8
// occur) and options, rapclient sends json.Marshal's bytes, and the
// server's single pass — not the encoding/json fallback — reads them back
// to the input, or, where json.Marshal repairs invalid UTF-8, to what
// encoding/json reads.
func FuzzRulesetCodecDifferential(f *testing.F) {
	for _, seed := range []string{
		`{"patterns":["cat","ab{10,48}c","end$"],"options":{}}`,
		`{"patterns":["cat"],"options":{"linear_budget_factor":3,"unfold_threshold":12,"max_nfa_states":-1,"dfa_state_cap":9,"disable_prefilter":true,"mode_policy":"force_nfa"}}` + "\n",
		`{"patterns":["a\"b\\c\/d\b\f\n\r\t","\u003cx\u0026\u003e","\u2028\ud83d\ude00\ufffd","\u00e9t\u00C9"]}`,
		"{\"patterns\":[\"\u00e9\U0001F600\u2028\"]}",
		`{"patterns":[]}`,
		"{\"patterns\":[\"caf\xc3\xa9\"]} \t\r\n",
		// Equivalent JSON the single pass must leave to encoding/json.
		`{ "patterns": ["cat"] }`,
		`{"options":{},"patterns":["cat"]}`,
		`{"patterns":["cat"],"options":{"unfold_threshold":12,"linear_budget_factor":3}}`,
		`{"patterns":["cat"],"options":{"unfold_threshold":1,"unfold_threshold":2}}`,
		`{"patterns":["cat"],"options":{},"extra":1}`,
		`{"Patterns":["cat"]}`,
		`{"patterns":null,"options":null}`,
		`{"patterns":["cat"],"options":{"unfold_threshold":1e1}}`,
		`{"patterns":["cat"],"options":{"unfold_threshold":-0}}`,
		"{\"patterns\":[\"bad\xff\"]}",
		`{"patterns":["\ud800"]}`,
		`{"patterns":["\udc00\ud800"]}`,
		// Malformed or trailing: both must refuse.
		`{"patterns":["abc"]} trailing`,
		`{"patterns":["abc"]}{"patterns":["x"]}`,
		`{"patterns":["abc"]}]`,
		`{"patterns":["abc",]}`,
		`{"patterns":["a` + "\x01" + `"]}`,
		`{"patterns":["\x"]}`,
		`{"patterns":[1]}`,
		`{"patterns":["cat"],"options":{"unfold_threshold":01}}`,
		`{"patterns":["cat"],"options":{"unfold_threshold":99999999999999999999}}`,
		`{"patterns":["cat"],"options":{"disable_prefilter":1}}`,
		"",
	} {
		f.Add([]byte(seed), []byte("\x03cat\x0aab{10,48}c"), int64(12), true, "force_nfa")
	}
	f.Add([]byte("{}"), []byte("\x04a<&>\x02\xff\xfe\x03\xe2\x80\xa8\x02\x00\x1f"), int64(-1), false, "\"\\")
	f.Fuzz(func(t *testing.T, body, raw []byte, n int64, flag bool, policy string) {
		got, gerr := DecodeRuleset(body)
		var want Ruleset
		if werr := json.Unmarshal(body, &want); (werr != nil) != (gerr != nil) {
			t.Fatalf("decode of %q: error %v, encoding/json error %v", body, gerr, werr)
		} else if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode of %q: %+v, encoding/json %+v", body, got, want)
		}

		patterns := []string{}
		for len(raw) > 0 {
			k := min(int(raw[0])%32, len(raw)-1)
			patterns, raw = append(patterns, string(raw[1:1+k])), raw[1+k:]
		}
		opts := &rapclient.CompileOptions{LinearBudgetFactor: int(n), UnfoldThreshold: int(n >> 8), MaxNFAStates: int(n >> 16),
			DFAStateCap: int(n >> 32), DisablePrefilter: flag, ModePolicy: policy}
		wire := rulesetBody(t, patterns, opts)
		marshalled, _ := json.Marshal(struct {
			Patterns []string                 `json:"patterns"`
			Options  rapclient.CompileOptions `json:"options"`
		}{patterns, *opts})
		if !bytes.Equal(wire, marshalled) {
			t.Fatalf("rapclient sent %q, json.Marshal writes %q", wire, marshalled)
		}
		back, ok := decodeCanonical(wire)
		if !ok {
			t.Fatalf("%q took the encoding/json fallback", wire)
		}
		var repaired Ruleset
		if err := json.Unmarshal(wire, &repaired); err != nil || !reflect.DeepEqual(back, repaired) {
			t.Fatalf("%q read as %+v, encoding/json %+v (%v)", wire, back, repaired, err)
		}
		valid := utf8.ValidString(policy)
		for _, p := range patterns {
			valid = valid && utf8.ValidString(p)
		}
		if sentOpts := (CompileOptions)(*opts); valid && !reflect.DeepEqual(back, Ruleset{patterns, sentOpts}) {
			t.Fatalf("%q read as %+v, sent %q %+v", wire, back, patterns, sentOpts)
		}
	})
}

// TestRulesetWireGolden holds the compile and update bodies rapclient
// sends to the bytes json.Marshal gave at the commit before the appender:
// HTML characters, control bytes, U+2028 and invalid UTF-8 escaped as it
// escapes them, options in field order with zero values left out.
func TestRulesetWireGolden(t *testing.T) {
	for _, tc := range []struct {
		patterns []string
		opts     *rapclient.CompileOptions
		want     string
	}{
		{[]string{"cat", "ab{10,48}c", "end$"}, nil,
			`{"patterns":["cat","ab{10,48}c","end$"],"options":{}}`},
		{nil, &rapclient.CompileOptions{}, `{"patterns":null,"options":{}}`},
		{[]string{}, &rapclient.CompileOptions{UnfoldThreshold: 12, DisablePrefilter: true}, `{"patterns":[],"options":{"unfold_threshold":12,"disable_prefilter":true}}`},
		{[]string{"<a&b>", "q\"\\/", "\b\f\n\r\t\x00\x1f\x7f", "\u2028\u2029\u00e9\U0001F600", "\xff\xc3"},
			&rapclient.CompileOptions{LinearBudgetFactor: -3, MaxNFAStates: 1 << 40, DFAStateCap: 7, ModePolicy: "force_nfa"},
			`{"patterns":["\u003ca\u0026b\u003e","q\"\\/","\b\f\n\r\t\u0000\u001f` + "\x7f" + `","\u2028\u2029` + "\u00e9\U0001F600" + `","\ufffd\ufffd"],` +
				`"options":{"linear_budget_factor":-3,"max_nfa_states":1099511627776,"dfa_state_cap":7,"mode_policy":"force_nfa"}}`},
	} {
		if got := rulesetBody(t, tc.patterns, tc.opts); string(got) != tc.want {
			t.Errorf("sent %s\nwant %s", got, tc.want)
		}
	}
}

// BenchmarkDecodeRuleset decodes the body rapclient sends for Snort@1.0,
// by DecodeRuleset's single pass and by encoding/json.
func BenchmarkDecodeRuleset(b *testing.B) {
	body, err := json.Marshal(Ruleset{Patterns: workload.MustGenerate("Snort", 1, 1).Patterns})
	if err != nil {
		b.Fatal(err)
	}
	for _, bm := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"single_pass", func(b []byte) error { _, err := DecodeRuleset(b); return err }},
		{"encoding_json", func(b []byte) error { var rs Ruleset; return json.Unmarshal(b, &rs) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bm.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
