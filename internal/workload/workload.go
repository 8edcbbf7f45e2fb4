// Package workload generates the seven evaluation benchmarks of §5.1 as
// seeded synthetic pattern sets (substitution #2 in DESIGN.md: the actual
// Snort/Suricata/Prosite/Yara/ClamAV/SpamAssassin/RegexLib rule dumps are
// proprietary or impractically large, but every published *composition*
// statistic is reproduced):
//
//   - per-dataset proportions of NBVA / LNFA / NFA-compilable regexes
//     (Fig 1): RegexLib mostly NFA; ClamAV >80% bounded repetitions;
//     Prosite and SpamAssassin mostly linear; Snort/Suricata mixed,
//   - bound-size distributions: ClamAV large (hundreds), Yara medium with
//     complex prefixes (the paper's AppPath=[C-Z]:\\...{1,64}\.exe
//     example), SpamAssassin small (the Jeste.{1,8}firm.{1,8} example),
//   - relative dataset sizes (ClamAV much larger than the rest).
//
// It also generates input streams with planted matches at a match rate
// below 10% (§3.3's reporting assumption) and an ANMLZoo-like set for the
// Table 4 FPGA comparison.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/regexast"
)

// Dataset is one generated benchmark.
type Dataset struct {
	Name     string
	Patterns []string
	// Alphabet is the background byte distribution for input generation.
	Alphabet string
	// Seed used; inputs derive their own stream from it.
	Seed int64
}

// Names lists the seven benchmarks in the paper's canonical order.
var Names = []string{"RegexLib", "Prosite", "SpamAssassin", "Snort", "Suricata", "Yara", "ClamAV"}

// NBVANames lists the benchmarks used in Table 2 (no Prosite: "No regex
// has been compiled to NBVA in Prosite", §5.3).
var NBVANames = []string{"RegexLib", "SpamAssassin", "Snort", "Suricata", "Yara", "ClamAV"}

// profile describes the generation mix for one dataset.
type profile struct {
	count            int     // patterns at scale 1.0
	nbva, lnfa, nfa  float64 // target shares (sum 1.0)
	boundLo, boundHi int     // NBVA bound range
	linLo, linHi     int     // LNFA literal length range
	alphabet         string
	hexStyle         bool // NBVA patterns look like byte signatures
	classHeavy       bool // LNFA patterns use multi-byte classes
	smallBoundPairs  bool // SpamAssassin-style r.{1,k} pairs
	complexPrefix    bool // Yara-style long literal prefixes
	// commonPrefixes are pre-escaped literal prefixes shared across many
	// rules, as real rule sets exhibit (HTTP verbs in Snort, header names
	// in SpamAssassin) — the structure prefix sharing exploits.
	commonPrefixes []string
}

var profiles = map[string]profile{
	"RegexLib": {
		count: 120, nbva: 0.10, lnfa: 0.22, nfa: 0.68,
		boundLo: 18, boundHi: 60, linLo: 5, linHi: 14,
		alphabet:       "abcdefghijklmnopqrstuvwxyz0123456789 .-@",
		commonPrefixes: []string{"http\\:\\/\\/", "www\\.", "mailto\\:"},
	},
	"Prosite": {
		count: 110, nbva: 0.0, lnfa: 0.85, nfa: 0.15,
		boundLo: 0, boundHi: 0, linLo: 8, linHi: 24,
		alphabet: "ACDEFGHIKLMNPQRSTVWY", classHeavy: true,
	},
	"SpamAssassin": {
		count: 130, nbva: 0.25, lnfa: 0.60, nfa: 0.15,
		boundLo: 18, boundHi: 40, linLo: 6, linHi: 18,
		alphabet: "abcdefghijklmnopqrstuvwxyz !$.", smallBoundPairs: true,
		commonPrefixes: []string{"subject\\ ", "from\\ ", "received\\ "},
	},
	"Snort": {
		count: 150, nbva: 0.45, lnfa: 0.15, nfa: 0.40,
		boundLo: 20, boundHi: 200, linLo: 5, linHi: 12,
		alphabet:       "abcdefghijklmnopqrstuvwxyz0123456789/:%&=",
		commonPrefixes: []string{"get\\ \\/", "post\\ \\/", "user\\-agent"},
	},
	"Suricata": {
		count: 150, nbva: 0.45, lnfa: 0.15, nfa: 0.40,
		boundLo: 20, boundHi: 180, linLo: 5, linHi: 12,
		alphabet:       "abcdefghijklmnopqrstuvwxyz0123456789/:%&=",
		commonPrefixes: []string{"get\\ \\/", "post\\ \\/", "host\\:"},
	},
	"Yara": {
		count: 100, nbva: 0.70, lnfa: 0.15, nfa: 0.15,
		boundLo: 16, boundHi: 64, linLo: 6, linHi: 14,
		alphabet:      "abcdefghijklmnopqrstuvwxyz0123456789\\:._",
		complexPrefix: true,
	},
	"ClamAV": {
		count: 300, nbva: 0.85, lnfa: 0.05, nfa: 0.10,
		boundLo: 80, boundHi: 450, linLo: 8, linHi: 16,
		alphabet: "0123456789abcdef", hexStyle: true,
	},
}

// Generate builds a dataset deterministically from its name, a scale
// factor for the pattern count, and a seed.
func Generate(name string, scale float64, seed int64) (*Dataset, error) {
	prof, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown dataset %q (have %v)", name, Names)
	}
	if scale <= 0 {
		scale = 1
	}
	r := rand.New(rand.NewSource(seed*31 + int64(len(name))*7919))
	count := int(float64(prof.count)*scale + 0.5)
	if count < 4 {
		count = 4
	}
	d := &Dataset{Name: name, Alphabet: prof.alphabet, Seed: seed}
	for i := 0; i < count; i++ {
		roll := r.Float64()
		var p string
		switch {
		case roll < prof.nbva:
			p = genNBVA(r, &prof)
		case roll < prof.nbva+prof.lnfa:
			p = genLNFA(r, &prof)
		default:
			p = genNFA(r, &prof)
		}
		d.Patterns = append(d.Patterns, p)
	}
	return d, nil
}

// MustGenerate is Generate that panics on error.
func MustGenerate(name string, scale float64, seed int64) *Dataset {
	d, err := Generate(name, scale, seed)
	if err != nil {
		panic(err)
	}
	return d
}

func pick(r *rand.Rand, s string) byte { return s[r.Intn(len(s))] }

func literal(r *rand.Rand, prof *profile, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		c := pick(r, prof.alphabet)
		switch c {
		case '.', '$', '\\', ':', '%', '&', '=', '/', '-', '@', '_', ' ', '!':
			// Escape or substitute regex metacharacters conservatively.
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// genNBVA emits a pattern dominated by one or two class-level bounded
// repetitions above the unfolding threshold.
func genNBVA(r *rand.Rand, prof *profile) string {
	bound := func() int { return prof.boundLo + r.Intn(prof.boundHi-prof.boundLo+1) }
	repClass := func() string {
		if prof.hexStyle {
			// ClamAV-style signatures mix exact bytes with wildcard
			// nibble classes; the wide class keeps BVs alive longer,
			// which is why ClamAV has the worst NBVA-mode throughput in
			// Table 2.
			if r.Intn(10) < 3 {
				return "[0-9a-f]"
			}
			return string(pick(r, "0123456789abcdef"))
		}
		// Mostly narrow classes: a wide repeated class (like '.') keeps
		// the bit vector alive on arbitrary background and would inflate
		// the bit-vector-processing duty cycle far beyond real rule sets.
		switch r.Intn(10) {
		case 0, 1:
			return "[0-9]"
		case 2:
			return "."
		default:
			return string(pick(r, "abcdefgkmpqw"))
		}
	}
	var b strings.Builder
	if prof.complexPrefix {
		// Yara-style: long literal prefix, bounded gap, literal suffix.
		b.WriteString(literal(r, prof, 6+r.Intn(6)))
		fmt.Fprintf(&b, "%s{1,%d}", repClass(), bound())
		b.WriteString(literal(r, prof, 3+r.Intn(3)))
		return b.String()
	}
	rc := repClass()
	// Wide repeated classes stay alive on arbitrary background, so real
	// rule sets gate them behind long literal prefixes; narrow classes
	// die on their own and tolerate short prefixes.
	prefixLen := 3 + r.Intn(3)
	if len(rc) > 1 {
		prefixLen = 5 + r.Intn(3)
	}
	b.WriteString(literal(r, prof, prefixLen))
	n := bound()
	switch r.Intn(3) {
	case 0: // exact
		fmt.Fprintf(&b, "%s{%d}", rc, n)
	case 1: // range
		m := n + 1 + r.Intn(n/2+1)
		fmt.Fprintf(&b, "%s{%d,%d}", rc, n, m)
	default: // up-to
		fmt.Fprintf(&b, "%s{0,%d}", rc, n)
		b.WriteString(literal(r, prof, 1))
	}
	b.WriteString(literal(r, prof, 2+r.Intn(3)))
	if prof.smallBoundPairs && r.Intn(2) == 0 {
		fmt.Fprintf(&b, ".{1,%d}", 17+r.Intn(8))
		b.WriteString(literal(r, prof, 3))
	}
	return b.String()
}

// genLNFA emits a linear pattern: literals, classes, dots, an occasional
// optional tail.
func genLNFA(r *rand.Rand, prof *profile) string {
	n := prof.linLo + r.Intn(prof.linHi-prof.linLo+1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch {
		case prof.classHeavy && r.Intn(3) == 0:
			// Prosite-style residue class, e.g. [LIVM]. Classes drawn
			// from one high-nibble group are single-32-bit-code
			// encodable (the 84% of §3.2); occasionally straddle groups.
			group := "ACDEFGHIKLMN" // high nibble 0x4
			if r.Intn(2) == 0 {
				group = "PQRSTVWY" // high nibble 0x5
			}
			if r.Intn(30) == 0 {
				// Rarely straddle nibble groups -> multi-code CC; tuned
				// so ~84% of whole sequences stay single-code (§3.2).
				group = prof.alphabet
			}
			k := 2 + r.Intn(3)
			seen := map[byte]bool{}
			b.WriteByte('[')
			for len(seen) < k {
				c := group[r.Intn(len(group))]
				if !seen[c] {
					seen[c] = true
					b.WriteByte(c)
				}
			}
			b.WriteByte(']')
		case r.Intn(8) == 0:
			b.WriteByte('.')
		default:
			b.WriteString(literal(r, prof, 1))
		}
	}
	// An occasional optional tail exercises the union rewriting; kept
	// rare so LNFA conversion growth stays near the paper's.
	if !prof.classHeavy && r.Intn(8) == 0 {
		b.WriteString(literal(r, prof, 1))
		b.WriteByte('?')
	}
	return b.String()
}

// genNFA emits a general pattern with unbounded repetition and
// alternation — not linearizable, no large bounds. Half of the patterns
// open with one of the dataset's common literal prefixes, matching the
// heavy prefix sharing of real rule sets.
func genNFA(r *rand.Rand, prof *profile) string {
	var b strings.Builder
	if len(prof.commonPrefixes) > 0 && r.Intn(2) == 0 {
		b.WriteString(prof.commonPrefixes[r.Intn(len(prof.commonPrefixes))])
	}
	b.WriteString(literal(r, prof, 2+r.Intn(3)))
	switch r.Intn(4) {
	case 0:
		fmt.Fprintf(&b, "(%s|%s)*", literal(r, prof, 2), literal(r, prof, 2))
		b.WriteString(literal(r, prof, 2))
	case 1:
		b.WriteString(".*")
		b.WriteString(literal(r, prof, 3+r.Intn(3)))
	case 2:
		fmt.Fprintf(&b, "(%s|%s)+", literal(r, prof, 1), literal(r, prof, 2))
		b.WriteString(literal(r, prof, 2))
	default:
		fmt.Fprintf(&b, "%s*", literal(r, prof, 1))
		b.WriteString(literal(r, prof, 2))
		fmt.Fprintf(&b, "(%s|%s)", literal(r, prof, 2), literal(r, prof, 3))
	}
	return b.String()
}

// Input generates an input stream of n bytes: background noise over the
// dataset alphabet with exemplar strings of randomly chosen patterns
// planted at random offsets (density chosen to keep the overall match
// rate well below 10%, §3.3).
func (d *Dataset) Input(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed ^ d.Seed<<1 ^ 0x5eed))
	out := make([]byte, n)
	for i := range out {
		out[i] = d.Alphabet[r.Intn(len(d.Alphabet))]
	}
	if len(d.Patterns) == 0 {
		return out
	}
	// Plant exemplars within a byte budget of ~2% of the stream, so the
	// match rate (and the bit-vector duty cycle) stays realistic even for
	// datasets with very long exemplars (ClamAV signatures span hundreds
	// of bytes).
	budget := n / 50
	planted := 0
	for attempts := 0; planted < budget && attempts < 4*len(d.Patterns)+16; attempts++ {
		p := d.Patterns[r.Intn(len(d.Patterns))]
		ex := Exemplar(p, r)
		if len(ex) == 0 || len(ex) >= n {
			continue
		}
		off := r.Intn(n - len(ex))
		copy(out[off:], ex)
		planted += len(ex)
	}
	return out
}

// Exemplar produces a string matching the pattern, used to plant matches.
// It returns nil if the pattern fails to parse.
func Exemplar(pattern string, r *rand.Rand) []byte {
	re, err := regexast.Parse(pattern)
	if err != nil {
		return nil
	}
	var out []byte
	var walk func(n regexast.Node)
	walk = func(n regexast.Node) {
		switch t := n.(type) {
		case regexast.Empty:
		case *regexast.Lit:
			bs := t.Class.Bytes()
			// Prefer printable members for realism.
			out = append(out, bs[r.Intn(len(bs))])
		case *regexast.Concat:
			for _, s := range t.Subs {
				walk(s)
			}
		case *regexast.Alt:
			walk(t.Subs[r.Intn(len(t.Subs))])
		case *regexast.Repeat:
			reps := t.Min
			if t.Max == regexast.Unbounded {
				reps += r.Intn(3)
			} else if t.Max > t.Min {
				reps += r.Intn(min(t.Max-t.Min, 3) + 1)
			}
			for i := 0; i < reps; i++ {
				walk(t.Sub)
			}
		}
	}
	walk(re.Root)
	return out
}

// --- ANMLZoo-like datasets for Table 4 --------------------------------

// ANMLZooNames are the five ANMLZoo benchmarks of Table 4.
var ANMLZooNames = []string{"Brill", "ClamAV", "Dotstar", "PowerEN", "Snort"}

// GenerateANMLZoo builds a synthetic stand-in for one ANMLZoo benchmark.
// ANMLZoo ships pre-unfolded automata, so everything is NFA/LNFA-shaped
// except ClamAV's large bounded repetitions (§5.5: "only ClamAV includes
// regexes with large bounded repetitions").
func GenerateANMLZoo(name string, scale float64, seed int64) (*Dataset, error) {
	base := map[string]profile{
		"Brill": {count: 140, nbva: 0, lnfa: 0.7, nfa: 0.3, linLo: 6, linHi: 16, alphabet: "abcdefghijklmnopqrstuvwxyz "},
		// ANMLZoo ships pre-unfolded automata (§5.1: bounded repetitions
		// are unfolded there), so the ClamAV stand-in is long-literal
		// heavy — which is how RAP sustains 2.07 Gch/s on it in Table 4.
		"ClamAV":  {count: 160, nbva: 0, lnfa: 0.65, nfa: 0.35, linLo: 20, linHi: 60, alphabet: "0123456789abcdef", hexStyle: true},
		"Dotstar": {count: 120, nbva: 0, lnfa: 0.2, nfa: 0.8, linLo: 5, linHi: 10, alphabet: "abcdefghijklmnopqrstuvwxyz0123456789"},
		"PowerEN": {count: 130, nbva: 0, lnfa: 0.5, nfa: 0.5, linLo: 6, linHi: 14, alphabet: "abcdefghijklmnopqrstuvwxyz0123456789"},
		"Snort":   {count: 150, nbva: 0.2, lnfa: 0.3, nfa: 0.5, boundLo: 20, boundHi: 120, linLo: 5, linHi: 12, alphabet: "abcdefghijklmnopqrstuvwxyz0123456789/:%&="},
	}
	prof, ok := base[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown ANMLZoo dataset %q", name)
	}
	if scale <= 0 {
		scale = 1
	}
	r := rand.New(rand.NewSource(seed*17 + int64(len(name))*104729))
	count := int(float64(prof.count)*scale + 0.5)
	if count < 4 {
		count = 4
	}
	d := &Dataset{Name: "ANMLZoo/" + name, Alphabet: prof.alphabet, Seed: seed}
	for i := 0; i < count; i++ {
		roll := r.Float64()
		switch {
		case roll < prof.nbva:
			d.Patterns = append(d.Patterns, genNBVA(r, &prof))
		case roll < prof.nbva+prof.lnfa:
			d.Patterns = append(d.Patterns, genLNFA(r, &prof))
		default:
			d.Patterns = append(d.Patterns, genNFA(r, &prof))
		}
	}
	return d, nil
}
