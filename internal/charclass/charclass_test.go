package charclass

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicsSetOps(t *testing.T) {
	c := Single('a')
	if !c.Contains('a') || c.Contains('b') {
		t.Error("Single broken")
	}
	if c.Count() != 1 {
		t.Errorf("Count = %d", c.Count())
	}
	c.Add('b')
	if c.Count() != 2 || !c.Contains('b') {
		t.Error("Add broken")
	}
}

func TestAnyAndNegate(t *testing.T) {
	if Any().Count() != 256 {
		t.Errorf("Any().Count() = %d", Any().Count())
	}
	if !Any().IsAny() || !(Class{}).IsEmpty() {
		t.Error("IsAny/IsEmpty broken")
	}
	d := Digit()
	nd := d.Negate()
	if d.Count()+nd.Count() != 256 {
		t.Error("Negate does not partition")
	}
	for b := 0; b < 256; b++ {
		if d.Contains(byte(b)) == nd.Contains(byte(b)) {
			t.Fatalf("byte %d in both or neither", b)
		}
	}
}

func TestNamedClasses(t *testing.T) {
	if Digit().Count() != 10 {
		t.Errorf("\\d count = %d", Digit().Count())
	}
	if Word().Count() != 63 { // 26+26+10+1
		t.Errorf("\\w count = %d", Word().Count())
	}
	if Space().Count() != 6 {
		t.Errorf("\\s count = %d", Space().Count())
	}
	if !Word().Contains('_') || Word().Contains('-') {
		t.Error("\\w membership wrong")
	}
}

func TestUnionIntersect(t *testing.T) {
	a := Range('a', 'm')
	b := Range('h', 'z')
	u := a.Union(b)
	i := a.Negate().Union(b.Negate()).Negate() // De Morgan: a ∩ b
	if u.Count() != 26 {
		t.Errorf("union count = %d", u.Count())
	}
	if i.Count() != 6 { // h..m
		t.Errorf("intersect count = %d", i.Count())
	}
	if a.Intersect(b) != i || a.Minus(b) != Range('a', 'g') {
		t.Errorf("Intersect = %v, Minus = %v", a.Intersect(b), a.Minus(b))
	}
}

func TestBytesSorted(t *testing.T) {
	c := Of('z', 'a', 'm')
	got := c.Bytes()
	want := []byte{'a', 'm', 'z'}
	if string(got) != string(want) {
		t.Errorf("Bytes() = %q, want %q", got, want)
	}
	if c.Sample() != 'a' {
		t.Errorf("Sample() = %q", c.Sample())
	}
}

func TestParseClassBody(t *testing.T) {
	cases := []struct {
		in      string
		members []byte
		neg     bool
	}{
		{"abc]", []byte{'a', 'b', 'c'}, false},
		{"a-c]", []byte{'a', 'b', 'c'}, false},
		{"a-cx]", []byte{'a', 'b', 'c', 'x'}, false},
		{"\\x41-\\x43]", []byte{'A', 'B', 'C'}, false},
		{"\\n\\t]", []byte{'\t', '\n'}, false},
		{"]abc]", []byte{']', 'a', 'b', 'c'}, false}, // leading ] is literal
		{"a\\-c]", []byte{'-', 'a', 'c'}, false},
		{"\\]]", []byte{']'}, false},
	}
	for _, tc := range cases {
		c, n, err := ParseClassBody(tc.in)
		if err != nil {
			t.Errorf("ParseClassBody(%q): %v", tc.in, err)
			continue
		}
		if tc.in[n] != ']' {
			t.Errorf("ParseClassBody(%q) consumed %d, not at ']'", tc.in, n)
		}
		if string(c.Bytes()) != string(tc.members) {
			t.Errorf("ParseClassBody(%q) = %q, want %q", tc.in, c.Bytes(), tc.members)
		}
	}
}

func TestParseClassBodyNegated(t *testing.T) {
	c, _, err := ParseClassBody("^a]")
	if err != nil {
		t.Fatal(err)
	}
	if c.Contains('a') || !c.Contains('b') || c.Count() != 255 {
		t.Error("negated class wrong")
	}
}

func TestParseClassBodyEscapeSets(t *testing.T) {
	c, _, err := ParseClassBody("\\d_]")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains('5') || !c.Contains('_') || c.Contains('a') {
		t.Error("\\d_ class wrong")
	}
}

func TestParseClassBodyErrors(t *testing.T) {
	for _, in := range []string{"abc", "c-a]", "\\xz1]", "a-\\d]", "\\"} {
		if _, _, err := ParseClassBody(in); err == nil {
			t.Errorf("ParseClassBody(%q): expected error", in)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	classes := []Class{
		Single('a'), Range('a', 'z'), Digit(), Word(), Space(),
		Of('a', 'q', 'z'), Range('a', 'z').Negate(), Any(),
	}
	for _, c := range classes {
		s := c.String()
		if s == "." {
			if !c.IsAny() {
				t.Errorf("%v rendered as .", c)
			}
			continue
		}
		if len(s) >= 2 && s[0] == '[' {
			back, n, err := ParseClassBody(s[1:])
			if err != nil || n != len(s)-2 {
				t.Errorf("re-parse of %q failed: %v (n=%d)", s, err, n)
				continue
			}
			if back != c {
				t.Errorf("round trip %q: got %q", s, back.String())
			}
		}
	}
}

func TestEncodeSingletons(t *testing.T) {
	for _, b := range []byte{0, 'a', 0x41, 0xff} {
		codes := Encode(Single(b))
		if len(codes) != 1 {
			t.Fatalf("singleton %#x: %d codes", b, len(codes))
		}
		if !codes[0].Matches(b) {
			t.Errorf("code does not match own byte %#x", b)
		}
		if codes[0].Class().Count() != 1 {
			t.Errorf("singleton code matches %d bytes", codes[0].Class().Count())
		}
	}
}

func TestEncodeKnownShapes(t *testing.T) {
	cases := []struct {
		c    Class
		want int
	}{
		{Any(), 1},           // all x all
		{Digit(), 1},         // hi 3 x lo 0-9
		{Range('a', 'z'), 2}, // hi6 x 1-f, hi7 x 0-a
		{Range('A', 'Z'), 2}, // hi4 x 1-f, hi5 x 0-a
		{Range(0x40, 0x4f), 1},
		{Class{}, 0},
	}
	for _, tc := range cases {
		if got := NumCodes(tc.c); got != tc.want {
			t.Errorf("NumCodes(%s) = %d, want %d", tc.c, got, tc.want)
		}
	}
	if !SingleCode(Digit()) || SingleCode(Range('a', 'z')) || SingleCode(Class{}) {
		t.Error("SingleCode classification wrong")
	}
}

func TestPropEncodeCoversExactly(t *testing.T) {
	// The union of the classes of the emitted codes equals the input class,
	// and the codes are pairwise disjoint (their sizes add up to it).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var c Class
		for i := 0; i < 40; i++ {
			c.Add(byte(r.Intn(256)))
		}
		codes := Encode(c)
		var cover Class
		total := 0
		for _, k := range codes {
			kc := k.Class()
			cover = cover.Union(kc)
			total += kc.Count()
		}
		return cover == c && total == c.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropCodeMatchAgreesWithClass(t *testing.T) {
	f := func(seed int64, probe byte) bool {
		r := rand.New(rand.NewSource(seed))
		var c Class
		for i := 0; i < 20; i++ {
			c.Add(byte(r.Intn(256)))
		}
		matched := false
		for _, k := range Encode(c) {
			if k.Matches(probe) {
				matched = true
			}
		}
		return matched == c.Contains(probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropNegateInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var c Class
		for i := 0; i < 30; i++ {
			c.Add(byte(r.Intn(256)))
		}
		return c.Negate().Negate() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPOSIXClasses(t *testing.T) {
	cases := []struct {
		in    string
		count int
		has   byte
	}{
		{"[:digit:]]", 10, '5'},
		{"[:alpha:]]", 52, 'Q'},
		{"[:alnum:]_]", 63, '_'},
		{"[:xdigit:]]", 22, 'f'},
		{"[:space:]]", 6, '\t'},
		{"a[:digit:]z]", 12, 'a'},
		{"[:blank:]]", 2, ' '},
	}
	for _, tc := range cases {
		c, n, err := ParseClassBody(tc.in)
		if err != nil {
			t.Errorf("ParseClassBody(%q): %v", tc.in, err)
			continue
		}
		if tc.in[n] != ']' {
			t.Errorf("%q: cursor not at ']'", tc.in)
		}
		if c.Count() != tc.count || !c.Contains(tc.has) {
			t.Errorf("%q: count=%d (want %d), has %q = %v", tc.in, c.Count(), tc.count, tc.has, c.Contains(tc.has))
		}
	}
	// Negated POSIX class.
	c, _, err := ParseClassBody("^[:digit:]]")
	if err != nil || c.Contains('5') || !c.Contains('x') {
		t.Errorf("negated digit class wrong (err %v)", err)
	}
	// Errors.
	for _, in := range []string{"[:nope:]]", "[:digit]"} {
		if _, _, err := ParseClassBody(in); err == nil {
			t.Errorf("ParseClassBody(%q): expected error", in)
		}
	}
}
