// Package charclass implements character classes: predicates over the
// 256-symbol byte alphabet Σ used to label the states of homogeneous
// automata. A Class is a compact 256-bit set supporting the PCRE-style
// class syntax subset used by the RAP compiler, plus the multi-zero-prefix
// CAM encoding scheme from CAMA that the LNFA mode relies on (§3.2).
package charclass

import (
	"fmt"
	"math/bits"
	"strings"
)

// AlphabetSize is the number of symbols in the input alphabet (bytes).
const AlphabetSize = 256

// Class is a set of byte values, i.e. a predicate over Σ. The zero value
// is the empty class.
type Class [4]uint64

// Any returns the class Σ matching every byte (PCRE "." without the
// newline exclusion; the paper treats '.' as Σ).
func Any() Class {
	return Class{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

// Single returns the class matching exactly b.
func Single(b byte) Class {
	var c Class
	c.Add(b)
	return c
}

// Range returns the class matching every byte in [lo, hi].
func Range(lo, hi byte) Class {
	var c Class
	c.AddRange(lo, hi)
	return c
}

// Of returns the class containing exactly the given bytes.
func Of(bs ...byte) Class {
	var c Class
	for _, b := range bs {
		c.Add(b)
	}
	return c
}

// Add inserts b into the class.
func (c *Class) Add(b byte) { c[b>>6] |= 1 << (b & 63) }

// AddRange inserts every byte in [lo, hi].
func (c *Class) AddRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		c.Add(byte(b))
	}
}

// Contains reports whether b is in the class.
func (c Class) Contains(b byte) bool { return c[b>>6]&(1<<(b&63)) != 0 }

// IsEmpty reports whether the class matches nothing.
func (c Class) IsEmpty() bool { return c == Class{} }

// IsAny reports whether the class matches every byte.
func (c Class) IsAny() bool { return c == Any() }

// Count returns the number of bytes in the class.
func (c Class) Count() int {
	return bits.OnesCount64(c[0]) + bits.OnesCount64(c[1]) +
		bits.OnesCount64(c[2]) + bits.OnesCount64(c[3])
}

// Union returns c ∪ o.
func (c Class) Union(o Class) Class {
	return Class{c[0] | o[0], c[1] | o[1], c[2] | o[2], c[3] | o[3]}
}

// Intersect returns c ∩ o.
func (c Class) Intersect(o Class) Class {
	return Class{c[0] & o[0], c[1] & o[1], c[2] & o[2], c[3] & o[3]}
}

// Minus returns c \ o.
func (c Class) Minus(o Class) Class {
	return Class{c[0] &^ o[0], c[1] &^ o[1], c[2] &^ o[2], c[3] &^ o[3]}
}

// Negate returns Σ \ c.
func (c Class) Negate() Class {
	return Class{^c[0], ^c[1], ^c[2], ^c[3]}
}

// Bytes returns the members of the class in increasing order.
func (c Class) Bytes() []byte {
	out := make([]byte, 0, c.Count())
	for w := 0; w < 4; w++ {
		word := c[w]
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			out = append(out, byte(w*64+bit))
			word &= word - 1
		}
	}
	return out
}

// Sample returns a deterministic representative byte of the class (the
// smallest member). It panics on an empty class; workload generators use
// it to plant matches.
func (c Class) Sample() byte {
	for w := 0; w < 4; w++ {
		if c[w] != 0 {
			return byte(w*64 + bits.TrailingZeros64(c[w]))
		}
	}
	panic("charclass: Sample of empty class")
}

// Common named classes mirroring PCRE escapes.
var (
	digit  = Range('0', '9')
	space  = Of(' ', '\t', '\n', '\r', '\v', '\f')
	wordCh = func() Class {
		c := Range('a', 'z')
		c = c.Union(Range('A', 'Z'))
		c = c.Union(Range('0', '9'))
		c.Add('_')
		return c
	}()
)

// Digit returns \d.
func Digit() Class { return digit }

// Space returns \s.
func Space() Class { return space }

// Word returns \w.
func Word() Class { return wordCh }

// String renders the class in a compact PCRE-ish form: a single literal
// for singletons, '.' for Σ, and a bracket expression with ranges
// otherwise. The output re-parses to the same class via ParseClassBody for
// bracket forms.
func (c Class) String() string {
	if c.IsAny() {
		return "."
	}
	if c.IsEmpty() {
		return "[]"
	}
	if c.Count() == 1 {
		return escapeLiteral(c.Sample())
	}
	neg := false
	work := c
	if c.Count() > 128 {
		neg = true
		work = c.Negate()
	}
	var b strings.Builder
	b.WriteByte('[')
	if neg {
		b.WriteByte('^')
	}
	members := work.Bytes()
	for i := 0; i < len(members); {
		j := i
		for j+1 < len(members) && members[j+1] == members[j]+1 {
			j++
		}
		if j-i >= 2 {
			b.WriteString(escapeInClass(members[i]))
			b.WriteByte('-')
			b.WriteString(escapeInClass(members[j]))
		} else {
			for k := i; k <= j; k++ {
				b.WriteString(escapeInClass(members[k]))
			}
		}
		i = j + 1
	}
	b.WriteByte(']')
	return b.String()
}

func escapeLiteral(b byte) string {
	switch b {
	case '.', '*', '+', '?', '(', ')', '[', ']', '{', '}', '|', '\\', '^', '$':
		return "\\" + string(b)
	case '\n':
		return "\\n"
	case '\t':
		return "\\t"
	case '\r':
		return "\\r"
	}
	if b < 0x20 || b >= 0x7f {
		return fmt.Sprintf("\\x%02x", b)
	}
	return string(b)
}

func escapeInClass(b byte) string {
	switch b {
	case ']', '\\', '^', '-':
		return "\\" + string(b)
	case '\n':
		return "\\n"
	case '\t':
		return "\\t"
	case '\r':
		return "\\r"
	}
	if b < 0x20 || b >= 0x7f {
		return fmt.Sprintf("\\x%02x", b)
	}
	return string(b)
}

// posixClasses are the POSIX bracket classes ([[:digit:]] etc.) common in
// Snort and SpamAssassin rules.
var posixClasses = map[string]func() Class{
	"alpha": func() Class { return Range('a', 'z').Union(Range('A', 'Z')) },
	"digit": Digit,
	"alnum": func() Class { return Range('a', 'z').Union(Range('A', 'Z')).Union(Digit()) },
	"upper": func() Class { return Range('A', 'Z') },
	"lower": func() Class { return Range('a', 'z') },
	"space": Space,
	"xdigit": func() Class {
		return Digit().Union(Range('a', 'f')).Union(Range('A', 'F'))
	},
	"punct": func() Class {
		var c Class
		for b := byte(0x21); b <= 0x7e; b++ {
			if !(b >= '0' && b <= '9') && !(b >= 'a' && b <= 'z') && !(b >= 'A' && b <= 'Z') {
				c.Add(b)
			}
		}
		return c
	},
	"print": func() Class { return Range(0x20, 0x7e) },
	"graph": func() Class { return Range(0x21, 0x7e) },
	"cntrl": func() Class {
		c := Range(0, 0x1f)
		c.Add(0x7f)
		return c
	},
	"blank": func() Class { return Of(' ', '\t') },
}

// ParseClassBody parses the interior of a bracket expression (everything
// between '[' and ']') and returns the class plus the number of input bytes
// consumed up to but not including the closing ']'. A leading '^' negates.
// POSIX classes like [:digit:] are supported inside the brackets.
func ParseClassBody(s string) (Class, int, error) {
	var c Class
	i := 0
	neg := false
	if i < len(s) && s[i] == '^' {
		neg = true
		i++
	}
	first := true
	for i < len(s) && (s[i] != ']' || first) {
		// POSIX class: [:name:]
		if strings.HasPrefix(s[i:], "[:") {
			end := strings.Index(s[i:], ":]")
			if end < 0 {
				return Class{}, 0, fmt.Errorf("charclass: unterminated POSIX class in %q", s)
			}
			name := s[i+2 : i+end]
			mk, ok := posixClasses[name]
			if !ok {
				return Class{}, 0, fmt.Errorf("charclass: unknown POSIX class [:%s:]", name)
			}
			c = c.Union(mk())
			i += end + 2
			first = false
			continue
		}
		lo, n, multi, err := classAtom(s[i:])
		if err != nil {
			return Class{}, 0, err
		}
		i += n
		first = false
		if multi != (Class{}) {
			// An escape that denotes a set (\d, \w, \s, ...) cannot form a
			// range endpoint.
			c = c.Union(multi)
			continue
		}
		if i < len(s) && s[i] == '-' && i+1 < len(s) && s[i+1] != ']' {
			i++ // consume '-'
			hi, n2, multi2, err := classAtom(s[i:])
			if err != nil {
				return Class{}, 0, err
			}
			if multi2 != (Class{}) {
				return Class{}, 0, fmt.Errorf("charclass: class escape cannot end a range in %q", s)
			}
			i += n2
			if hi < lo {
				return Class{}, 0, fmt.Errorf("charclass: reversed range %q-%q", lo, hi)
			}
			c.AddRange(lo, hi)
		} else {
			c.Add(lo)
		}
	}
	if i >= len(s) {
		return Class{}, 0, fmt.Errorf("charclass: missing ']' in class %q", s)
	}
	if neg {
		c = c.Negate()
	}
	return c, i, nil
}

// classAtom parses one literal or escape inside a bracket expression.
// It returns either a single byte (multi == empty) or a multi-byte class
// for set escapes like \d.
func classAtom(s string) (b byte, n int, multi Class, err error) {
	if len(s) == 0 {
		return 0, 0, Class{}, fmt.Errorf("charclass: empty class atom")
	}
	if s[0] != '\\' {
		return s[0], 1, Class{}, nil
	}
	if len(s) < 2 {
		return 0, 0, Class{}, fmt.Errorf("charclass: dangling backslash")
	}
	switch s[1] {
	case 'd':
		return 0, 2, Digit(), nil
	case 'D':
		return 0, 2, Digit().Negate(), nil
	case 'w':
		return 0, 2, Word(), nil
	case 'W':
		return 0, 2, Word().Negate(), nil
	case 's':
		return 0, 2, Space(), nil
	case 'S':
		return 0, 2, Space().Negate(), nil
	case 'n':
		return '\n', 2, Class{}, nil
	case 't':
		return '\t', 2, Class{}, nil
	case 'r':
		return '\r', 2, Class{}, nil
	case 'v':
		return '\v', 2, Class{}, nil
	case 'f':
		return '\f', 2, Class{}, nil
	case '0':
		return 0, 2, Class{}, nil
	case 'x':
		if len(s) < 4 {
			return 0, 0, Class{}, fmt.Errorf("charclass: truncated \\x escape in %q", s)
		}
		hi, ok1 := unhex(s[2])
		lo, ok2 := unhex(s[3])
		if !ok1 || !ok2 {
			return 0, 0, Class{}, fmt.Errorf("charclass: invalid \\x escape in %q", s)
		}
		return hi<<4 | lo, 4, Class{}, nil
	default:
		// Any other escaped byte is itself (metacharacters and more).
		return s[1], 2, Class{}, nil
	}
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
