package service

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Ruleset is the body of POST /v1/programs and PUT /v1/programs/{id}.
type Ruleset struct {
	Patterns []string       `json:"patterns"`
	Options  CompileOptions `json:"options"`
}

// DecodeRuleset decodes a ruleset body; it is json.Unmarshal into a zero
// Ruleset, result and error alike, trailing bytes included. The node's
// compile and update routes and a gateway's compile and canary routes all
// read a body through it, so a gateway routes by the ruleset the node
// compiles.
//
// The canonical form — json.Marshal's bytes of a Ruleset, which
// pkg/rapclient sends, with or without the options object and followed by
// white space — is read in one pass: every pattern is unescaped into one
// backing string, and the whole list costs two allocations. Any other
// bytes are encoding/json's to decode or refuse; nothing but the bytes
// selects the path.
func DecodeRuleset(b []byte) (Ruleset, error) {
	if rs, ok := decodeCanonical(b); ok {
		return rs, nil
	}
	var rs Ruleset
	err := json.Unmarshal(b, &rs)
	return rs, err
}

// optionKeys are CompileOptions' JSON keys, quoted and with their colon,
// in the order json.Marshal writes them; the canonical form has each at
// most once, in this order.
var optionKeys = [...]string{`"linear_budget_factor":`, `"unfold_threshold":`, `"max_nfa_states":`, `"dfa_state_cap":`, `"disable_prefilter":`, `"mode_policy":`}

// decodeCanonical reads b if it is in the canonical form, and reports
// false on the first byte that is not.
func decodeCanonical(b []byte) (Ruleset, bool) {
	var rs Ruleset
	c := ruleCursor{b: b}
	if !c.lit(`{"patterns":[`) {
		return rs, false
	}
	// The unescaped text is never longer than the body, so the builder is
	// grown once: its bytes never move, and a pattern (or the mode policy)
	// is cut from it as soon as it is written.
	var text strings.Builder
	text.Grow(len(b))
	rs.Patterns = make([]string, 0, bytes.Count(b, []byte{'"'})/2)
	for len(c.b) > 0 && c.b[0] != ']' {
		if len(rs.Patterns) > 0 && !c.lit(",") {
			return rs, false
		}
		start := text.Len()
		if !c.str(&text) {
			return rs, false
		}
		rs.Patterns = append(rs.Patterns, text.String()[start:])
	}
	if !c.lit("]") {
		return rs, false
	}
	if c.lit(`,"options":{`) {
		next := 0 // the first key still allowed
		for len(c.b) > 0 && c.b[0] != '}' {
			if next > 0 && !c.lit(",") {
				return rs, false
			}
			k := next
			for k < len(optionKeys) && !c.lit(optionKeys[k]) {
				k++
			}
			var ok bool
			switch o := &rs.Options; k {
			case 0:
				o.LinearBudgetFactor, ok = c.int()
			case 1:
				o.UnfoldThreshold, ok = c.int()
			case 2:
				o.MaxNFAStates, ok = c.int()
			case 3:
				o.DFAStateCap, ok = c.int()
			case 4:
				o.DisablePrefilter, ok = c.bool()
			case 5:
				start := text.Len()
				if ok = c.str(&text); ok {
					o.ModePolicy = text.String()[start:]
				}
			}
			if !ok {
				return rs, false
			}
			next = k + 1
		}
		if !c.lit("}") {
			return rs, false
		}
	}
	if !c.lit("}") {
		return rs, false
	}
	for _, ch := range c.b {
		if ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r' {
			return rs, false
		}
	}
	return rs, true
}

// ruleCursor consumes canonical bytes off the front of b.
type ruleCursor struct{ b []byte }

// lit consumes s if b starts with it.
func (c *ruleCursor) lit(s string) bool {
	if len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		return false
	}
	c.b = c.b[len(s):]
	return true
}

// str consumes a JSON string and writes its value to out. Raw control
// bytes, invalid UTF-8 and a surrogate escape are refused or repaired by
// encoding/json in ways the fast path leaves to it: they report false.
func (c *ruleCursor) str(out *strings.Builder) bool {
	if !c.lit(`"`) {
		return false
	}
	b := c.b
	for i := 0; i < len(b); {
		switch ch := b[i]; {
		case ch == '"':
			c.b = b[i+1:]
			return true
		case ch < 0x20:
			return false
		case ch != '\\':
			// A run of plain bytes is written at once. It ends at an ASCII
			// byte, so it holds whole UTF-8 sequences or invalid ones.
			j, or := i+1, ch
			for j < len(b) && plain[b[j]] {
				or |= b[j]
				j++
			}
			if or >= utf8.RuneSelf && !utf8.Valid(b[i:j]) {
				return false
			}
			out.Write(b[i:j])
			i = j
		case i+1 >= len(b):
			return false
		default:
			esc := b[i+1]
			i += 2
			switch esc {
			case '"', '\\', '/':
				out.WriteByte(esc)
			case 'b':
				out.WriteByte('\b')
			case 'f':
				out.WriteByte('\f')
			case 'n':
				out.WriteByte('\n')
			case 'r':
				out.WriteByte('\r')
			case 't':
				out.WriteByte('\t')
			case 'u':
				// json.Marshal writes a rune past U+FFFF as it is, so a
				// surrogate is left to encoding/json, paired or not.
				if i+4 > len(b) {
					return false
				}
				r, err := strconv.ParseUint(string(b[i:i+4]), 16, 16)
				if err != nil || 0xD800 <= r && r < 0xE000 {
					return false
				}
				out.WriteRune(rune(r))
				i += 4
			default:
				return false
			}
		}
	}
	return false
}

// plain marks the bytes a string holds as they are: all but control
// bytes, the quote and the backslash.
var plain = func() (t [256]bool) {
	for ch := 0x20; ch < len(t); ch++ {
		t[ch] = ch != '"' && ch != '\\'
	}
	return t
}()

// int consumes an integer in JSON's grammar that fits an int. A fraction
// or an exponent after it is left for the caller to refuse.
func (c *ruleCursor) int() (int, bool) {
	n := 0
	if n < len(c.b) && c.b[n] == '-' {
		n++
	}
	digits := n
	for n < len(c.b) && '0' <= c.b[n] && c.b[n] <= '9' {
		n++
	}
	if n == digits || (c.b[digits] == '0' && n > digits+1) {
		return 0, false
	}
	v, err := strconv.Atoi(string(c.b[:n]))
	if err != nil {
		return 0, false
	}
	c.b = c.b[n:]
	return v, true
}

// bool consumes true or false.
func (c *ruleCursor) bool() (bool, bool) {
	if c.lit("true") {
		return true, true
	}
	return false, c.lit("false")
}
