package mapper

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/workload"
)

// dumpPlacement hashes a canonical rendering of everything the simulator
// and the image builder read from a placement: per array its mode, depth,
// cross-tile edge count and regex list, every tile and bin, and the tile of
// every state of every regex (with one lookup past each regex's last state,
// which must miss).
func dumpPlacement(res *compile.Result, p *arch.Placement) string {
	h := sha256.New()
	for ai := range p.Arrays {
		a := &p.Arrays[ai]
		fmt.Fprintf(h, "array %d mode=%v depth=%d cross=%d regexes=%v\n", ai, a.Mode, a.Depth, a.CrossTileEdges, a.Regexes)
		for ti := range a.Tiles {
			fmt.Fprintf(h, " tile %d %+v\n", ti, a.Tiles[ti])
		}
		for bi := range a.Bins {
			fmt.Fprintf(h, " bin %d %+v\n", bi, a.Bins[bi])
		}
		for _, ri := range a.Regexes {
			c := &res.Regexes[ri]
			n := 0
			switch {
			case a.Mode == arch.ModeNFA && c.NFA != nil:
				n = c.NFA.NumStates()
			case a.Mode == arch.ModeNBVA && c.NBVA != nil:
				n = c.NBVA.NumStates()
			}
			for q := 0; q <= n; q++ {
				tile, ok := a.TileOf(arch.StateRef{Regex: ri, State: q})
				fmt.Fprintf(h, " state %d/%d -> %d %v\n", ri, q, tile, ok)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

var goldenOptions = []Options{{}, {Depth: 4, BinSize: 1}, {Depth: 32, BinSize: 32, Packing: PackDecreasing}}

// goldenPlacement pins dumpPlacement of every dataset @1.0 under
// goldenOptions. Recorded with the mapper that cloned the array per NBVA
// regex and kept state tiles in a map[StateRef]int, before placement became
// copy-free and slice-indexed: the simulator's input is the same, not only
// the image built from it.
var goldenPlacement = map[string][3]string{
	"RegexLib":     {"4d65b1845cf0a1336491bf86df0846f118d7dad36673280477d39b3a5dba4122", "7689da3f2478981259597460f7891e9a19e963f069c10da90590d6a57632819f", "18be3578fea8ad1115c36d294a36e14dbf055895f2a3e6d61af92260574d2af9"},
	"Prosite":      {"7b28e8eea8673d63372ea9ce6f54619732f11caf70cb68dd416c13d9df1e8b76", "59738c7578e2cfc6889c78d77979856fd5b8272af1ab184220f3b2913843d280", "5d77aedebe3e78dc3ee6492657ba9519c5a4937b301abec0800083800aa4f08e"},
	"SpamAssassin": {"5abe13a8079322a4c35e17978b1fab222fd47a10eaa5300c6fd2f11b9803812f", "19a57dd9ff62df60b9bec9b83db9e54d026d44dafbd4d9ce097601f18170d525", "2ead58cd986b96c130b7aef23fc4d95c714df0818cb552c047350b1030259a36"},
	"Snort":        {"2a60a227798a1dbb28a2b5496ebbdc684bb05c4582768551fa60f8755a83ab8f", "41ff0bafc136aceaa8a7bf66cbe3a80e30a0b5e9dfb203cbe6c28436e4fd537c", "9eeaf2297af3cf30f2745b216caea5d58bdaa7afffec7101d80c4d9564cd41d5"},
	"Suricata":     {"f7d0e8e0e2fe68d794c8c18ac4f4ba1f2948265fe3c6b74c963622734f434e71", "b39cf7eeff4c19f00ecbc0befd7f0c4742d07b2b5ec68b4f3b8ae3d927f3ddaf", "1964e31dd6837d2c55df599c4c7751975c516963d9b4ec545656f1bc5ce58472"},
	"Yara":         {"599e0fe950cf489d004354eb455574c70a9161a6636a048afca15ddbc52ddd37", "9865ce22b41f3d4bcdad35ce9a2d9fc894b43ea9bfa06baac3af344597098c10", "c986c9ce8626e23521ce1f3344ac6f45310a16a24ad2fb54aed26ea5fad0792c"},
	"ClamAV":       {"966a0915bfa6321925f4a182c55388746a2f3c0399345d13477baea0ca107d57", "d5c07e45ae63c61de50fd266bfd1b5e1802a2257a8345ff783bfe72a908f4df5", "c8925a29e79a260ae6699540edbb3efd7cfa80e55295cf5557094e5287efb1d7"},
}

func TestPlacementGolden(t *testing.T) {
	for _, name := range workload.Names {
		d := workload.MustGenerate(name, 1, 1)
		res := compile.Compile(d.Patterns, compile.Options{})
		want, ok := goldenPlacement[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		for i, opts := range goldenOptions {
			p, err := Map(res, opts)
			if err != nil {
				t.Fatalf("%s opts %+v: %v", name, opts, err)
			}
			if got := dumpPlacement(res, p); got != want[i] {
				t.Errorf("%s opts %+v: placement sha256 %s, want %s", name, opts, got, want[i])
			}
		}
	}
}
