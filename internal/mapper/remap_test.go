package mapper

import (
	"bytes"
	"context"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/reconfig"
	"repro/internal/workload"
)

// maxTileGrowth is the most tiles Remap may use, in arrays arrays, for a
// Result a cold Map packs as cold: maxHoleShare's bound.
func maxTileGrowth(cold *arch.Placement, arrays int) int {
	return int(float64(cold.TilesUsed()+arrays) / (1 - maxHoleShare))
}

func marshal(t *testing.T, img *bitstream.Image) []byte {
	t.Helper()
	data, err := img.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkCRC fails t unless the CRC img folds from its tiles' and switches'
// is the CRC-32 of its serialized form, trailer aside.
func checkCRC(t *testing.T, what string, img *bitstream.Image) {
	t.Helper()
	data := marshal(t, img)
	if got, want := img.CRC(), crc32.ChecksumIEEE(data[:len(data)-4]); got != want {
		t.Fatalf("%s image: CRC() = %08x, its bytes %08x", what, got, want)
	}
}

// FuzzRemap drives random edit scripts — replace, insert, delete, reorder,
// revert — over a workload subset. Every generation is compiled by
// compile.Recompile from the one before, placed by Remap from its
// placement and built by bitstream.Rebuild on its image, as Service.Update
// does. After every step: Remap leaves the served placement, whose arrays
// and tiles the new one shares, as it was; the placement keeps the
// mapper's invariants with every regex placed once; the image built on the served one equals the
// image built from nothing; the delta from the served image applies to it
// to give the new one; Rebuild leaves the served image, whose tiles the
// new one shares, as it was; Remap uses at most maxTileGrowth tiles; and
// the CRC the rebuilt image and a cold Map's image fold from their tiles
// and switches is the CRC-32 of their bytes.
func FuzzRemap(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 1, 2, 3, 4, 0, 0})
	f.Add(int64(2), uint8(3), []byte{4, 4, 0, 2, 2, 1})
	f.Add(int64(3), uint8(6), []byte{0, 0, 0, 0, 3})
	f.Add(int64(4), uint8(1), []byte{1, 1, 1, 2, 4, 0})
	f.Add(int64(45), uint8('.'), []byte("002"))  // drops an NFA routed through the global switch
	f.Add(int64(-56), uint8(1), []byte("22122")) // inserts one-member bins that must share a tile
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, script []byte) {
		if len(script) > 12 {
			script = script[:12]
		}
		name := workload.Names[int(pick)%len(workload.Names)]
		opts := Options{
			Depth:   arch.BVDepths[int(pick>>3)%len(arch.BVDepths)],
			BinSize: arch.BinSizes[int(pick>>5)%len(arch.BinSizes)],
		}
		if pick&4 != 0 {
			opts.Packing = PackDecreasing
		}
		d := workload.MustGenerate(name, 0.3, seed)
		fresh := workload.MustGenerate(name, 0.3, seed+1).Patterns
		rng := rand.New(rand.NewSource(seed))

		cur := d.Patterns
		res := compile.Compile(cur, compile.Options{})
		p, err := Map(res, opts)
		if err != nil {
			t.Skip(err) // a pattern the fabric cannot hold at this depth
		}
		img, err := bitstream.Build(res, p)
		if err != nil {
			t.Fatal(err)
		}
		history := [][]string{cur}
		for step, op := range script {
			next := append([]string(nil), cur...)
			at := func() int { return rng.Intn(len(next)) }
			switch op % 5 {
			case 0: // replace
				for k := 1 + rng.Intn(1+len(next)/5); k > 0; k-- {
					next[at()] = fresh[rng.Intn(len(fresh))]
				}
			case 1: // insert
				i := rng.Intn(len(next) + 1)
				next = append(next[:i], append([]string{fresh[rng.Intn(len(fresh))]}, next[i:]...)...)
			case 2: // delete
				if len(next) > 1 {
					i := at()
					next = append(next[:i], next[i+1:]...)
				}
			case 3: // reorder
				rng.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
			case 4: // revert
				next = append(next[:0], history[rng.Intn(len(history))]...)
			}
			history = append(history, next)

			nres, err := compile.Recompile(context.Background(), res, nil, next, compile.Options{})
			if err != nil || len(nres.Errors) > 0 {
				t.Fatalf("step %d: compile: %v %v", step, err, nres.Errors)
			}
			served := dumpPlacement(res, p)
			np, _, err := Remap(p, res, nres, opts)
			if err != nil {
				t.Skip(err)
			}
			if dumpPlacement(res, p) != served {
				t.Fatalf("step %d (op %d): Remap wrote the placement it remapped", step, op%5)
			}
			checkInvariants(t, nres, np, opts)
			base := marshal(t, img)
			built, err := bitstream.Rebuild(img, nres, np)
			if err != nil {
				t.Fatalf("step %d: rebuild: %v", step, err)
			}
			if !bytes.Equal(marshal(t, img), base) {
				t.Fatalf("step %d (op %d): Rebuild wrote the image it built on", step, op%5)
			}
			whole, err := bitstream.Build(nres, np)
			if err != nil {
				t.Fatalf("step %d: build: %v", step, err)
			}
			data := marshal(t, built)
			if !bytes.Equal(data, marshal(t, whole)) {
				t.Fatalf("step %d (op %d): the image built on the served one differs from one built whole", step, op%5)
			}
			checkCRC(t, "rebuilt", built)
			applied, err := reconfig.Apply(img, reconfig.Diff(img, built))
			if err != nil || !bytes.Equal(marshal(t, applied), data) {
				t.Fatalf("step %d: Apply(Diff(old, new), old) is not new (err %v)", step, err)
			}
			cold, err := Map(nres, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, bound := np.TilesUsed(), maxTileGrowth(cold, len(np.Arrays)); got > bound {
				t.Fatalf("step %d: Remap uses %d tiles, a cold Map %d (bound %d)", step, got, cold.TilesUsed(), bound)
			}
			coldImg, err := bitstream.Build(nres, cold)
			if err != nil {
				t.Fatal(err)
			}
			checkCRC(t, "cold", coldImg)
			cur, res, p, img = next, nres, np, built
		}
	})
}

// TestRemapKeepsPlaces: a regex taken from the served generation keeps its
// slots whatever its new index, a new one of the same size takes the hole
// the removed one left, and a regex that needs an array the served
// placement lacks sends Remap to the cold pack.
func TestRemapKeepsPlaces(t *testing.T) {
	ctx := context.Background()
	prev := compile.Compile([]string{"a(b|c)*d", "x(y|z)*w", "q(r|s)*t"}, compile.Options{})
	p, err := Map(prev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := compile.Recompile(ctx, prev, nil, []string{"q(r|s)*t", "m(n|o)*p", "a(b|c)*d"}, compile.Options{})
	np, repacked, err := Remap(p, prev, res, Options{})
	if err != nil || repacked {
		t.Fatalf("remap: repacked %v, err %v", repacked, err)
	}
	a, oa := &np.Arrays[0], &p.Arrays[0]
	if a.SlotOf(0) != oa.SlotOf(2) || a.SlotOf(1) != oa.SlotOf(1) || a.SlotOf(2) != oa.SlotOf(0) {
		t.Errorf("slots %d %d %d, want %d %d %d", a.SlotOf(0), a.SlotOf(1), a.SlotOf(2), oa.SlotOf(2), oa.SlotOf(1), oa.SlotOf(0))
	}
	checkInvariants(t, res, np, Options{})

	next, _ := compile.Recompile(ctx, res, nil, []string{"q(r|s)*t", "hello"}, compile.Options{})
	cp, repacked, err := Remap(np, res, next, Options{})
	cold, _ := Map(next, Options{})
	if err != nil || !repacked || dumpPlacement(next, cp) != dumpPlacement(next, cold) {
		t.Errorf("a literal beside NFAs: repacked %v, err %v, same as a cold Map %v", repacked, err, dumpPlacement(next, cp) == dumpPlacement(next, cold))
	}
}
