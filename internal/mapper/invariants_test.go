package mapper

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/workload"
)

// checkInvariants verifies the structural guarantees every placement must
// provide, whatever the workload:
//
//  1. capacity: no tile exceeds its column budget (NFA/NBVA) or LNFA slot
//     budgets;
//  2. coverage: every compiled state of every regex is placed (has a tile
//     via TileOf or BV allocations, or is covered by a bin);
//  3. exclusivity: r and rAll bit vectors never share a tile (§4.1);
//  4. split integrity: the chunks of a split BV sum to the machine's BV
//     size;
//  5. bin sanity: members within bin size, offsets within regions, tiles
//     within the array;
//  6. placed once: an NFA or NBVA regex is listed by exactly one array, an
//     LNFA sequence is a member of exactly one bin (holes aside);
//  7. NFA slots: each regex's states take consecutive slots, on the tiles
//     TileOf reports, disjoint from every other regex's and counted once
//     in their tile's columns.
func checkInvariants(t *testing.T, res *compile.Result, p *arch.Placement, opts Options) {
	t.Helper()
	opts.setDefaults()
	bvSeen := map[arch.StateRef]int{} // summed split sizes
	listed := map[int]int{}           // NFA/NBVA regex -> arrays listing it
	for ai := range p.Arrays {
		a := &p.Arrays[ai]
		if a.Mode != arch.ModeLNFA {
			var slotOwner [arch.ArraySTECapacity]int
			var columns [arch.TilesPerArray]int
			for _, r := range a.Regexes {
				listed[r]++
				if a.Mode != arch.ModeNFA {
					continue
				}
				for q := 0; q < res.Regexes[r].NFA.NumStates(); q++ {
					slot := a.SlotOf(r) + q
					if tile, _ := a.TileOf(arch.StateRef{Regex: r, State: q}); slot >= len(slotOwner) || tile != slot/arch.TileSTEs || slotOwner[slot] != 0 {
						t.Errorf("array %d: regex %d state %d on slot %d (tile %d) overlaps or leaves the array", ai, r, q, slot, tile)
						continue
					}
					slotOwner[slot] = r + 1
					columns[slot/arch.TileSTEs]++
				}
			}
			for ti := range a.Tiles {
				if a.Mode == arch.ModeNFA && a.Tiles[ti].CCColumns != columns[ti] {
					t.Errorf("array %d tile %d: %d CC columns for %d placed states", ai, ti, a.Tiles[ti].CCColumns, columns[ti])
				}
			}
		}
		for ti := range a.Tiles {
			tp := &a.Tiles[ti]
			if tp.Columns() > arch.TileSTEs {
				t.Errorf("array %d tile %d: %d columns > %d", ai, ti, tp.Columns(), arch.TileSTEs)
			}
			if tp.CAMSlots > arch.TileSTEs {
				t.Errorf("array %d tile %d: CAM slots %d", ai, ti, tp.CAMSlots)
			}
			if tp.SwitchSlots > arch.SwitchLNFASlots {
				t.Errorf("array %d tile %d: switch slots %d", ai, ti, tp.SwitchSlots)
			}
			kinds := map[nbva.ReadAction]bool{}
			for _, bv := range tp.BVs {
				kinds[bv.Read] = true
				bvSeen[arch.StateRef{Regex: bv.Regex, State: bv.STE}] += bv.Size
				if bv.Width != arch.BVWidth(bv.Size, bv.Depth) {
					t.Errorf("array %d tile %d: width %d for size %d depth %d",
						ai, ti, bv.Width, bv.Size, bv.Depth)
				}
			}
			if len(kinds) > 1 {
				t.Errorf("array %d tile %d mixes r and rAll", ai, ti)
			}
		}
		for bi := range a.Bins {
			b := &a.Bins[bi]
			if len(b.Seqs) == 0 || len(b.Seqs) > opts.BinSize {
				t.Errorf("array %d bin %d: %d members (bin size %d)", ai, bi, len(b.Seqs), opts.BinSize)
			}
			region := b.RegionSize()
			if b.StartOffset < 0 || b.StartOffset >= region {
				t.Errorf("array %d bin %d: start offset %d of region %d", ai, bi, b.StartOffset, region)
			}
			for _, tile := range b.Tiles {
				if tile < 0 || tile >= arch.TilesPerArray {
					t.Errorf("array %d bin %d: tile %d out of range", ai, bi, tile)
				}
			}
			need := (b.StartOffset + b.PaddedLen + region - 1) / region
			if len(b.Tiles) != need {
				t.Errorf("array %d bin %d: %d tiles for %d depth (region %d)",
					ai, bi, len(b.Tiles), b.StartOffset+b.PaddedLen, region)
			}
		}
	}
	// Coverage per compiled regex.
	binCover := map[[2]int]bool{}
	for ai := range p.Arrays {
		for bi := range p.Arrays[ai].Bins {
			for _, ref := range p.Arrays[ai].Bins[bi].Seqs {
				if ref == arch.Hole {
					continue
				}
				if binCover[ref] {
					t.Errorf("sequence %v in two bins", ref)
				}
				binCover[ref] = true
			}
		}
	}
	stateCovered := func(regex, state int) bool {
		for ai := range p.Arrays {
			if _, ok := p.Arrays[ai].TileOf(arch.StateRef{Regex: regex, State: state}); ok {
				return true
			}
		}
		return false
	}
	for i := range res.Regexes {
		c := &res.Regexes[i]
		if c.Source == "" {
			continue
		}
		if c.Mode != compile.ModeLNFA && listed[c.Index] != 1 {
			t.Errorf("regex %d (%q) listed by %d arrays", c.Index, c.Source, listed[c.Index])
		}
		switch c.Mode {
		case compile.ModeNFA:
			for q := 0; q < c.NFA.NumStates(); q++ {
				if !stateCovered(c.Index, q) {
					t.Errorf("regex %d (%q) NFA state %d unplaced", c.Index, c.Source, q)
				}
			}
		case compile.ModeNBVA:
			for q, s := range c.NBVA.States {
				if !stateCovered(c.Index, q) {
					t.Errorf("regex %d (%q) NBVA state %d unplaced", c.Index, c.Source, q)
				}
				if s.BV != nil {
					if got := bvSeen[arch.StateRef{Regex: c.Index, State: q}]; got != s.BV.Size {
						t.Errorf("regex %d state %d: split sizes sum to %d, want %d",
							c.Index, q, got, s.BV.Size)
					}
				}
			}
		case compile.ModeLNFA:
			for si := range c.Seqs {
				if !binCover[[2]int{c.Index, si}] {
					t.Errorf("regex %d (%q) sequence %d not binned", c.Index, c.Source, si)
				}
			}
		}
	}
}

func TestInvariantsAcrossWorkloads(t *testing.T) {
	for _, name := range workload.Names {
		for _, opts := range []Options{{}, {Depth: 4, BinSize: 1}, {Depth: 32, BinSize: 32}} {
			d := workload.MustGenerate(name, 0.15, 9)
			res := compile.Compile(d.Patterns, compile.Options{})
			if len(res.Errors) != 0 {
				t.Fatalf("%s: %v", name, res.Errors[0])
			}
			p, err := Map(res, opts)
			if err != nil {
				t.Fatalf("%s opts %+v: %v", name, opts, err)
			}
			checkInvariants(t, res, p, opts)
		}
	}
}

func TestInvariantsRandomPatterns(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		var patterns []string
		n := r.Intn(12) + 1
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0:
				patterns = append(patterns, fmt.Sprintf("%c{%d}%c", 'a'+r.Intn(4), 20+r.Intn(400), 'x'))
			case 1:
				patterns = append(patterns, fmt.Sprintf("ab%c{0,%d}cd", 'k'+r.Intn(3), 20+r.Intn(200)))
			case 2:
				s := make([]byte, r.Intn(20)+1)
				for j := range s {
					s[j] = byte('a' + r.Intn(8))
				}
				patterns = append(patterns, string(s))
			default:
				patterns = append(patterns, fmt.Sprintf("q(w|e)*%c", 'a'+r.Intn(4)))
			}
		}
		res := compile.Compile(patterns, compile.Options{})
		if len(res.Errors) != 0 {
			t.Fatal(res.Errors[0])
		}
		opts := Options{Depth: []int{4, 8, 16, 32}[r.Intn(4)], BinSize: 1 << r.Intn(6)}
		p, err := Map(res, opts)
		if err != nil {
			t.Fatalf("patterns %v: %v", patterns, err)
		}
		checkInvariants(t, res, p, opts)
	}
}

func TestMapDeterminism(t *testing.T) {
	d := workload.MustGenerate("Suricata", 0.2, 4)
	res := compile.Compile(d.Patterns, compile.Options{})
	a, err := Map(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arrays) != len(b.Arrays) || a.TilesUsed() != b.TilesUsed() {
		t.Fatal("mapping nondeterministic at array level")
	}
	for ai := range a.Arrays {
		if fmt.Sprintf("%+v", a.Arrays[ai].Tiles) != fmt.Sprintf("%+v", b.Arrays[ai].Tiles) {
			t.Fatalf("array %d tiles differ between runs", ai)
		}
	}
}
