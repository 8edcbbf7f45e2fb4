package bitstream

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/mapper"
	"repro/internal/workload"
)

func buildFor(t *testing.T, patterns []string, opts mapper.Options) (*compile.Result, *arch.Placement, *Image) {
	t.Helper()
	res := compile.Compile(patterns, compile.Options{})
	if len(res.Errors) != 0 {
		t.Fatal(res.Errors[0])
	}
	p, err := mapper.Map(res, opts)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Build(res, p)
	if err != nil {
		t.Fatal(err)
	}
	return res, p, img
}

func TestBuildNFAImage(t *testing.T) {
	_, _, img := buildFor(t, []string{"a(b|c)*d"}, mapper.Options{})
	if len(img.Arrays) != 1 {
		t.Fatalf("arrays = %d", len(img.Arrays))
	}
	tile := img.Arrays[0].Tiles[0]
	// 4 CC columns with codes.
	cc := 0
	for col, role := range tile.ColRole {
		if role == ColCC {
			cc++
			if tile.CAMCodes[col] == 0 {
				t.Errorf("CC column %d has zero code", col)
			}
		}
	}
	if cc != 4 {
		t.Errorf("CC columns = %d", cc)
	}
	// a(b|c)*d: edges a->b, a->c, a->d, b->b, b->c, b->d, c->b, c->c,
	// c->d = 9 local dots.
	s := img.Summarize()
	if s.SwitchDots != 9 {
		t.Errorf("switch dots = %d, want 9", s.SwitchDots)
	}
	if s.GlobalDots != 0 {
		t.Errorf("global dots = %d", s.GlobalDots)
	}
}

func TestBuildCrossTileEdges(t *testing.T) {
	// 200-state NFA spans two tiles: one edge crosses -> one global dot.
	pattern := "x*"
	for i := 0; i < 199; i++ {
		pattern += "a"
	}
	_, _, img := buildFor(t, []string{pattern}, mapper.Options{})
	s := img.Summarize()
	if s.GlobalDots != 1 {
		t.Errorf("global dots = %d, want 1", s.GlobalDots)
	}
}

// TestBuildGlobalPortCollision: a global port is one state's line into
// the switch, and the port is the state's column modulo 32. Under
// ForceNFA, (a{32}|b{32}|c{32}|d{32})e puts the last a, b, c and d (slots
// 31, 63, 95, 127) on port 31, and x(a{32}|b{32}|c{32}|d{32})e puts slots
// 32, 64 and 96 on port 0. Build refuses both, naming array and port, as
// the switch would merge their edges into one dot; so does Rebuild when
// it writes the switch.
func TestBuildGlobalPortCollision(t *testing.T) {
	for _, tc := range []struct{ pattern, port string }{
		{"(a{32}|b{32}|c{32}|d{32})e", "global port 31 "},
		{"x(a{32}|b{32}|c{32}|d{32})e", "global port 0 "},
	} {
		res := compile.Compile([]string{tc.pattern}, compile.Options{ModePolicy: compile.ForceNFA})
		if len(res.Errors) != 0 {
			t.Fatal(res.Errors[0])
		}
		p, err := mapper.Map(res, mapper.Options{})
		if err != nil {
			t.Fatal(err)
		}
		img, err := Build(res, p)
		if err == nil || img != nil || !strings.Contains(err.Error(), "array 0 "+tc.port) {
			t.Errorf("Build(%s) = %v, %v; want an error naming array 0 and %s", tc.pattern, img, err, tc.port)
		}
		// The same ruleset as an update of one that builds: the remap
		// keeps nothing of the served switch, so Rebuild writes it.
		baseRes := compile.Compile([]string{"x(ab|cd)*e"}, compile.Options{ModePolicy: compile.ForceNFA})
		baseP, err := mapper.Map(baseRes, mapper.Options{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := Build(baseRes, baseP)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err = mapper.Remap(baseP, baseRes, res, mapper.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Arrays[0].Reused&arch.GlobalSwitchBit != 0 {
			t.Fatalf("%s: the remap reuses the served global switch", tc.pattern)
		}
		if _, err := Rebuild(base, res, p); err == nil || !strings.Contains(err.Error(), tc.port) {
			t.Errorf("Rebuild(%s) = %v, want an error naming %s", tc.pattern, err, tc.port)
		}
	}
}

func TestBuildNBVAImage(t *testing.T) {
	_, p, img := buildFor(t, []string{"ab{100}c"}, mapper.Options{Depth: 4})
	tile := img.Arrays[0].Tiles[0]
	if len(tile.BVs) != 1 {
		t.Fatalf("BVs = %d", len(tile.BVs))
	}
	bv := tile.BVs[0]
	if bv.Width != 25 || bv.Depth != 4 || bv.Size != 100 || bv.ReadAll {
		t.Errorf("BV config = %+v", bv)
	}
	// Canonical layout: 3 CC + 1 init + 25 BV columns.
	s := img.Summarize()
	if s.CCColumns != 3 || s.BVColumns != 25 {
		t.Errorf("columns: cc=%d bv=%d", s.CCColumns, s.BVColumns)
	}
	// Shift-action routing: width dots (ring over the BV columns).
	if s.SwitchDots != 25 {
		t.Errorf("switch dots = %d, want 25", s.SwitchDots)
	}
	_ = p
}

func TestBuildLNFAImage(t *testing.T) {
	// Single-code classes -> CAM; [a-z] (two codes) -> one-hot switch.
	_, _, img := buildFor(t, []string{"abc", "[a-z][a-z]"}, mapper.Options{BinSize: 1})
	s := img.Summarize()
	if s.CCColumns == 0 {
		t.Error("no CAM-mapped LNFA columns")
	}
	// The one-hot encoding programs 26 bits per [a-z] slot × 2 slots.
	if s.SwitchDots != 52 {
		t.Errorf("switch dots = %d, want 52", s.SwitchDots)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, name := range []string{"Snort", "Prosite", "ClamAV"} {
		d := workload.MustGenerate(name, 0.1, 5)
		res := compile.Compile(d.Patterns, compile.Options{})
		if len(res.Errors) != 0 {
			t.Fatal(res.Errors[0])
		}
		p, err := mapper.Map(res, mapper.Options{})
		if err != nil {
			t.Fatal(err)
		}
		img, err := Build(res, p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := img.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(back.Arrays) != len(img.Arrays) {
			t.Fatalf("%s: arrays %d != %d", name, len(back.Arrays), len(img.Arrays))
		}
		a, b := img.Summarize(), back.Summarize()
		if a != b {
			t.Errorf("%s: stats changed through round trip:\n%+v\n%+v", name, a, b)
		}
		// Deep compare one tile.
		for ai := range img.Arrays {
			for ti := range img.Arrays[ai].Tiles {
				x, y := img.Arrays[ai].Tiles[ti], back.Arrays[ai].Tiles[ti]
				if x.ColRole != y.ColRole || x.CAMCodes != y.CAMCodes || x.LocalSwitch != y.LocalSwitch {
					t.Fatalf("%s: tile a%d t%d differs", name, ai, ti)
				}
			}
		}
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	_, _, img := buildFor(t, []string{"abc"}, mapper.Options{})
	data, _ := img.MarshalBinary()
	// Flip a byte in the middle: CRC must catch it.
	data[len(data)/2] ^= 0xff
	if _, err := Parse(data); err == nil {
		t.Error("corrupted image accepted")
	}
	if _, err := Parse(data[:8]); err == nil {
		t.Error("truncated image accepted")
	}
	if _, err := Parse(nil); err == nil {
		t.Error("empty image accepted")
	}
}

func TestImageSizeScales(t *testing.T) {
	_, _, small := buildFor(t, []string{"abc"}, mapper.Options{})
	d := workload.MustGenerate("Snort", 0.3, 1)
	res := compile.Compile(d.Patterns, compile.Options{})
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(res, p)
	if err != nil {
		t.Fatal(err)
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Errorf("image size did not grow: %d vs %d", big.SizeBytes(), small.SizeBytes())
	}
}

// TestSizeBytesFromLayout: the size is computed, not marshalled — equal to
// the marshalled length on every mode's image and free of allocations.
func TestSizeBytesFromLayout(t *testing.T) {
	_, _, img := buildFor(t, []string{"cat", "a(b|c)*d", "ab{20,48}c", "x.{100}y"}, mapper.Options{})
	data, err := img.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := img.SizeBytes(); got != len(data) || cap(data) != len(data) {
		t.Errorf("SizeBytes = %d, marshalled %d bytes in a buffer of %d", got, len(data), cap(data))
	}
	if n := testing.AllocsPerRun(10, func() { _ = img.SizeBytes() }); n != 0 {
		t.Errorf("SizeBytes allocates %v times", n)
	}
}

func TestValidate(t *testing.T) {
	for _, name := range []string{"Snort", "Prosite"} {
		d := workload.MustGenerate(name, 0.15, 5)
		res := compile.Compile(d.Patterns, compile.Options{})
		p, err := mapper.Map(res, mapper.Options{})
		if err != nil {
			t.Fatal(err)
		}
		img, err := Build(res, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := img.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Corrupt a built image and expect Validate to object.
	_, _, img := buildFor(t, []string{"ab{100}c"}, mapper.Options{Depth: 4})
	img.Arrays[0].Tiles[0].BVs[0].Width = 200
	if err := img.Validate(); err == nil {
		t.Error("oversized BV accepted")
	}
}

// CRC is the trailer MarshalBinary writes, folded from the CRCs its tiles
// and switches were sealed with: it allocates nothing, on an image it has
// not seen, and it is taken once per image.
func TestCRCMatchesTrailerWithoutAllocating(t *testing.T) {
	for _, name := range []string{"Snort", "ClamAV", "Prosite"} {
		_, _, img := buildFor(t, workload.MustGenerate(name, 1, 1).Patterns, mapper.Options{})
		data, err := img.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		trailer := binary.LittleEndian.Uint32(data[len(data)-4:])
		if got := img.CRC(); got != trailer {
			t.Errorf("%s: CRC() = %08x, trailer %08x", name, got, trailer)
		}
		fresh, k := make([]Image, 21), 0 // AllocsPerRun's warm-up call and 20 more
		for i := range fresh {
			fresh[i].Arrays = img.Arrays
		}
		if allocs := testing.AllocsPerRun(20, func() { fresh[k].CRC(); k++ }); allocs != 0 && !raceEnabled {
			t.Errorf("%s: CRC allocates %.0f times per call", name, allocs)
		}
		if img.Arrays[0].Tiles[0].CAMCodes[0]++; img.CRC() != trailer {
			t.Errorf("%s: a second CRC() was not the first one's", name)
		}
	}
	if got, want := (&Image{}).CRC(), crc32.ChecksumIEEE((&Image{}).appendHeader(nil)); got != want {
		t.Errorf("empty image: CRC() = %08x, want %08x", got, want)
	}
}

// TestTilesSealedWhenBuilt: Build, Parse and a writer's Seal take the CRC
// of every tile and global switch they make, so CRC only folds; a Clone,
// made to be written, is unsealed until sealed again, and its CRC is read
// from its bytes meanwhile.
func TestTilesSealedWhenBuilt(t *testing.T) {
	_, _, built := buildFor(t, workload.MustGenerate("Snort", 0.3, 1).Patterns, mapper.Options{})
	data, err := built.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	trailer := binary.LittleEndian.Uint32(data[len(data)-4:])
	for name, img := range map[string]*Image{"built": built, "parsed": parsed} {
		for ai := range img.Arrays {
			a := &img.Arrays[ai]
			for ti, tile := range a.Tiles {
				if tile.crc != 1<<32|uint64(tile.update(0)) {
					t.Fatalf("%s: array %d tile %d is not sealed with its CRC", name, ai, ti)
				}
			}
			if a.switchCRC == 0 {
				t.Fatalf("%s: array %d switch is not sealed", name, ai)
			}
		}
		if img.CRC() != trailer {
			t.Errorf("%s: CRC() = %08x, trailer %08x", name, img.CRC(), trailer)
		}
	}
	clone := &Image{Arrays: make([]ArrayConfig, len(built.Arrays))}
	for i := range built.Arrays {
		clone.Arrays[i] = built.Arrays[i].Clone()
		if clone.Arrays[i].switchCRC != 0 || clone.Arrays[i].Tiles[0].crc != 0 {
			t.Fatalf("array %d: a clone kept the seal of what it copied", i)
		}
	}
	clone.Arrays[0].Tiles[0].CAMCodes[0]++
	if clone.CRC() == trailer {
		t.Error("the CRC of a written clone is the original's")
	}
	for i := range clone.Arrays {
		clone.Arrays[i].Seal()
	}
	if fresh := (&Image{Arrays: clone.Arrays}); fresh.CRC() != clone.CRC() {
		t.Errorf("sealed clone: CRC() = %08x, from its bytes %08x", fresh.CRC(), clone.CRC())
	}
}
