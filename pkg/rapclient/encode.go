package rapclient

import (
	"strconv"
	"unicode/utf8"
)

// rulesetBody returns json.Marshal's bytes of the compile and update
// request — the form the server reads in one pass and any other bytes
// through encoding/json — appended into one buffer sized for them.
func rulesetBody(patterns []string, o *CompileOptions) []byte {
	n := len(`{"patterns":[],"options":{}}`)
	for _, p := range patterns {
		n += len(p) + 3
	}
	b := append(make([]byte, 0, n+16), `{"patterns":`...)
	if patterns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range patterns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, p)
		}
		b = append(b, ']')
	}
	b = append(b, `,"options":{`...)
	if o != nil {
		sep := len(b) // a field after this position is not the first
		field := func(key string) {
			if len(b) > sep {
				b = append(b, ',')
			}
			b = append(append(append(b, '"'), key...), `":`...)
		}
		for _, f := range [...]struct {
			key string
			v   int
		}{{"linear_budget_factor", o.LinearBudgetFactor}, {"unfold_threshold", o.UnfoldThreshold}, {"max_nfa_states", o.MaxNFAStates}, {"dfa_state_cap", o.DFAStateCap}} {
			if f.v != 0 {
				field(f.key)
				b = strconv.AppendInt(b, int64(f.v), 10)
			}
		}
		if o.DisablePrefilter {
			field("disable_prefilter")
			b = append(b, "true"...)
		}
		if o.ModePolicy != "" {
			field("mode_policy")
			b = appendString(b, o.ModePolicy)
		}
	}
	return append(b, "}}"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json quotes it: HTML-escaped, each
// byte of invalid UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, `\b`...)
			case '\f':
				b = append(b, `\f`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
