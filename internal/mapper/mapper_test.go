package mapper

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/workload"
)

func mustMap(t *testing.T, patterns []string, opts Options) (*compile.Result, *arch.Placement) {
	t.Helper()
	res := compile.Compile(patterns, compile.Options{})
	if len(res.Errors) != 0 {
		t.Fatalf("compile errors: %v", res.Errors)
	}
	p, err := Map(res, opts)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	return res, p
}

func TestMapNFASingleArray(t *testing.T) {
	_, p := mustMap(t, []string{"a(b|c)*d", "x.*y"}, Options{})
	if len(p.Arrays) != 1 {
		t.Fatalf("arrays = %d", len(p.Arrays))
	}
	a := p.Arrays[0]
	if a.Mode != arch.ModeNFA {
		t.Errorf("mode = %v", a.Mode)
	}
	if a.Tiles[0].CCColumns != 4+3 {
		t.Errorf("tile0 columns = %d", a.Tiles[0].CCColumns)
	}
	if p.TilesUsed() != 1 {
		t.Errorf("tiles used = %d", p.TilesUsed())
	}
	if a.CrossTileEdges != 0 {
		t.Errorf("cross-tile edges = %d", a.CrossTileEdges)
	}
}

func TestMapNFACrossTileEdges(t *testing.T) {
	// A 200-state linear-ish NFA spans two tiles: exactly one follow edge
	// crosses the boundary. Build .* of length 200 via a{200} composite
	// that falls to NFA: use (a|b){100}-style... simplest: a long pattern
	// with a star to force NFA mode.
	pattern := "x*" + strings.Repeat("a", 199)
	_, p := mustMap(t, []string{pattern}, Options{})
	a := p.Arrays[0]
	if got := a.Tiles[0].CCColumns + a.Tiles[1].CCColumns; got != 200 {
		t.Fatalf("states placed = %d", got)
	}
	if a.CrossTileEdges != 1 {
		t.Errorf("cross-tile edges = %d, want 1", a.CrossTileEdges)
	}
}

func TestMapNFAOverflowToSecondArray(t *testing.T) {
	// 3 regexes of ~1000 NFA states: two fit the first array (2048), the
	// third opens a second.
	pat := "z*" + strings.Repeat("a", 999)
	_, p := mustMap(t, []string{pat, pat, pat}, Options{})
	if len(p.Arrays) != 2 {
		t.Fatalf("arrays = %d", len(p.Arrays))
	}
}

func TestMapNBVAColumns(t *testing.T) {
	// ab{100}c at depth 4: units a(1) + BV(1+1+25) + c(1) = 29 columns.
	res, p := mustMap(t, []string{"ab{100}c"}, Options{Depth: 4})
	if res.Regexes[0].Mode != compile.ModeNBVA {
		t.Fatalf("mode = %v", res.Regexes[0].Mode)
	}
	if len(p.Arrays) != 1 || p.Arrays[0].Mode != arch.ModeNBVA {
		t.Fatalf("placement: %+v", p)
	}
	tp := p.Arrays[0].Tiles[0]
	if tp.CCColumns != 3 || tp.InitColumns != 1 || tp.BVColumns != 25 {
		t.Errorf("tile = CC %d, Init %d, BV %d", tp.CCColumns, tp.InitColumns, tp.BVColumns)
	}
	if len(tp.BVs) != 1 || tp.BVs[0].Size != 100 || tp.BVs[0].Width != 25 {
		t.Errorf("BVs = %+v", tp.BVs)
	}
}

func TestMapNBVADepthChangesWidth(t *testing.T) {
	_, p4 := mustMap(t, []string{"ab{128}c"}, Options{Depth: 4})
	_, p32 := mustMap(t, []string{"ab{128}c"}, Options{Depth: 32})
	w4 := p4.Arrays[0].Tiles[0].BVColumns
	w32 := p32.Arrays[0].Tiles[0].BVColumns
	if w4 != 32 || w32 != 4 {
		t.Errorf("widths = %d (d4), %d (d32)", w4, w32)
	}
}

func TestMapNBVASplitWideBV(t *testing.T) {
	// Example 4.3: a{1024} at depth 4 splits into 504+504+16-bit chunks.
	res := compile.Compile([]string{"a{1024}b"}, compile.Options{})
	if len(res.Errors) != 0 {
		t.Fatal(res.Errors)
	}
	p, err := Map(res, Options{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, tile := range p.Arrays[0].Tiles {
		for _, bv := range tile.BVs {
			sizes = append(sizes, bv.Size)
		}
	}
	if len(sizes) != 3 || sizes[0] != 504 || sizes[1] != 504 || sizes[2] != 16 {
		t.Errorf("split sizes = %v, want [504 504 16]", sizes)
	}
}

func TestMapNBVAReadExclusivity(t *testing.T) {
	// b{0,50} (rAll) and c{40} (r) must land in different tiles (§4.1).
	_, p := mustMap(t, []string{"ab{0,50}c{40}d"}, Options{Depth: 4})
	a := p.Arrays[0]
	for ti := range a.Tiles {
		kinds := map[int]bool{}
		for _, bv := range a.Tiles[ti].BVs {
			kinds[int(bv.Read)] = true
		}
		if len(kinds) > 1 {
			t.Errorf("tile %d mixes read kinds", ti)
		}
	}
	if p.TilesUsed() < 2 {
		t.Errorf("tiles used = %d, want >= 2", p.TilesUsed())
	}
}

func TestMapLNFABinning(t *testing.T) {
	// 8 short CAM-mappable patterns with bin size 4 -> 2 bins; each bin
	// fits one tile, only bin-leading tiles have initial states.
	pats := make([]string, 8)
	for i := range pats {
		pats[i] = strings.Repeat(string(rune('a'+i%3)), 5+i%3)
	}
	res, p := mustMap(t, pats, Options{BinSize: 4})
	for _, c := range res.Regexes {
		if c.Mode != compile.ModeLNFA {
			t.Fatalf("%q mode = %v", c.Source, c.Mode)
		}
	}
	if len(p.Arrays) != 1 || p.Arrays[0].Mode != arch.ModeLNFA {
		t.Fatalf("arrays = %+v", p.Arrays)
	}
	a := p.Arrays[0]
	if len(a.Bins) < 2 {
		t.Fatalf("bins = %d", len(a.Bins))
	}
	totalMembers := 0
	for _, b := range a.Bins {
		if len(b.Seqs) > 4 {
			t.Errorf("bin members = %d > bin size 4", len(b.Seqs))
		}
		totalMembers += len(b.Seqs)
	}
	if totalMembers != 8 {
		t.Errorf("total bin members = %d, want 8", totalMembers)
	}
	// Binning concentrates initial states: far fewer initial tiles than
	// patterns.
	initTiles := 0
	for _, tile := range a.Tiles {
		if tile.HasInitial {
			initTiles++
		}
	}
	if initTiles == 0 || initTiles > len(a.Bins) {
		t.Errorf("tiles with initial states = %d (bins %d)", initTiles, len(a.Bins))
	}
}

func TestMapLNFALargePatternSpansTiles(t *testing.T) {
	// A 200-state linear pattern with bin size 1: region = 128 -> 2 tiles.
	pat := strings.Repeat("a", 200)
	_, p := mustMap(t, []string{pat}, Options{BinSize: 1})
	a := p.Arrays[0]
	if len(a.Bins) != 1 || len(a.Bins[0].Tiles) != 2 {
		t.Fatalf("bins = %+v", a.Bins)
	}
	if !a.Tiles[0].HasInitial || a.Tiles[1].HasInitial {
		t.Error("initial tile flags wrong")
	}
}

func TestMapLNFASwitchMapped(t *testing.T) {
	// [a-z] is not single-code: the sequence is switch-mapped with
	// capacity 64 per tile.
	pat := strings.Repeat("[a-z]", 70)
	res, p := mustMap(t, []string{pat}, Options{BinSize: 1})
	if res.Regexes[0].Mode != compile.ModeLNFA {
		t.Fatalf("mode = %v", res.Regexes[0].Mode)
	}
	a := p.Arrays[0]
	if len(a.Bins) != 1 || a.Bins[0].CAMMapped {
		t.Fatalf("bins = %+v", a.Bins)
	}
	if len(a.Bins[0].Tiles) != 2 { // 70 states / 64 per tile
		t.Errorf("tiles = %v", a.Bins[0].Tiles)
	}
	if a.Tiles[0].SwitchSlots == 0 || a.Tiles[0].CAMSlots != 0 {
		t.Errorf("tile resources: cam=%d switch=%d", a.Tiles[0].CAMSlots, a.Tiles[0].SwitchSlots)
	}
}

func TestMapMixedModesSeparateArrays(t *testing.T) {
	_, p := mustMap(t, []string{"abc", "x{100}", "a(b|c)*d"}, Options{})
	modes := map[arch.Mode]bool{}
	for _, a := range p.Arrays {
		modes[a.Mode] = true
	}
	if len(p.Arrays) != 3 || !modes[arch.ModeNFA] || !modes[arch.ModeNBVA] || !modes[arch.ModeLNFA] {
		t.Errorf("arrays = %d, modes = %v", len(p.Arrays), modes)
	}
}

func TestMapPaddingWaste(t *testing.T) {
	// Bin of sizes 10 and 6 -> padding waste 4.
	_, p := mustMap(t, []string{strings.Repeat("a", 10), strings.Repeat("b", 6)}, Options{BinSize: 2})
	b := p.Arrays[0].Bins[0]
	if b.PaddedLen != 10 || b.PaddingWaste != 4 {
		t.Errorf("bin = %+v", b)
	}
}

// TestMapRejectsOutOfRangeOptions: a depth outside arch.BVDepths or a
// bin size outside 1..arch.MaxBinSize is refused before anything is
// placed. A negative one never finished placing (a negative chunk grows
// the bit vector it splits), so each call gets a deadline.
func TestMapRejectsOutOfRangeOptions(t *testing.T) {
	res := compile.Compile([]string{"xa[bc]{100}d", "abc"}, compile.Options{})
	for _, d := range arch.BVDepths {
		if _, err := Map(res, Options{Depth: d, BinSize: arch.MaxBinSize}); err != nil {
			t.Errorf("depth %d: %v", d, err)
		}
	}
	for _, opts := range []Options{{Depth: -4}, {Depth: 3}, {Depth: 64}, {BinSize: -1}, {BinSize: 33}} {
		done := make(chan error, 1)
		go func() {
			_, err := Map(res, opts)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%+v placed, want an error", opts)
			}
		case <-time.After(2 * time.Second):
			panic(fmt.Sprintf("Map with %+v did not return in 2s", opts))
		}
	}
}

func TestBVWidth(t *testing.T) {
	if arch.BVWidth(100, 4) != 25 || arch.BVWidth(7, 4) != 2 || arch.BVWidth(0, 4) != 0 {
		t.Error("BVWidth wrong")
	}
}

func TestPackDecreasingNeverWorse(t *testing.T) {
	// First-fit-decreasing should use no more tiles than input order, and
	// the placement must still satisfy every invariant.
	for _, name := range []string{"Snort", "ClamAV", "RegexLib"} {
		d := workloadGen(t, name)
		res := compile.Compile(d, compile.Options{})
		if len(res.Errors) != 0 {
			t.Fatal(res.Errors[0])
		}
		asGiven, err := Map(res, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Map(res, Options{Packing: PackDecreasing})
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, res, dec, Options{Packing: PackDecreasing})
		// FFD usually wins but the r/rAll tile-exclusivity constraint can
		// cost it a tile; allow a small margin either way.
		if dec.TilesUsed() > asGiven.TilesUsed()+asGiven.TilesUsed()/10+1 {
			t.Errorf("%s: FFD used %d tiles >> as-given %d", name, dec.TilesUsed(), asGiven.TilesUsed())
		}
	}
}

func workloadGen(t *testing.T, name string) []string {
	t.Helper()
	d := workload.MustGenerate(name, 0.3, 6)
	return d.Patterns
}
