package reconfig

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// imageFor compiles+maps+builds a deployment image for a pattern set.
func imageFor(t testing.TB, patterns []string) *bitstream.Image {
	t.Helper()
	res := compile.Compile(patterns, compile.Options{})
	if len(res.Errors) != 0 {
		t.Fatal(res.Errors[0])
	}
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := bitstream.Build(res, p)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func marshalled(t *testing.T, img *bitstream.Image) []byte {
	t.Helper()
	data, err := img.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkApply asserts the acceptance property: Apply(old, Diff(old, new))
// is bit-identical to new, after a marshal/parse round trip of the delta.
func checkApply(t *testing.T, old, new *bitstream.Image) *Delta {
	t.Helper()
	d := Diff(old, new)
	data, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDelta(data)
	if err != nil {
		t.Fatalf("delta round trip: %v", err)
	}
	applied, err := Apply(old, back)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !bytes.Equal(marshalled(t, applied), marshalled(t, new)) {
		t.Fatal("applied image is not bit-identical to the target")
	}
	return back
}

func TestDiffIdenticalImagesIsEmpty(t *testing.T) {
	img := imageFor(t, []string{"cat", "ab{10,48}c", "a(b|c)*d"})
	d := Diff(img, img)
	if d.Records() != 0 {
		t.Fatalf("self-diff has %d records", d.Records())
	}
	if len(d.TouchedArrays()) != 0 {
		t.Fatalf("self-diff touches arrays %v", d.TouchedArrays())
	}
	checkApply(t, img, img)
}

func TestDiffSingleRuleChange(t *testing.T) {
	old := imageFor(t, []string{"cat", "dog", "fish"})
	new := imageFor(t, []string{"cat", "dog", "bird"})
	d := checkApply(t, old, new)
	if d.Records() == 0 {
		t.Fatal("one-rule churn produced an empty delta")
	}
	// The delta must be far smaller than the full image.
	deltaData, _ := d.MarshalBinary()
	if full := old.SizeBytes(); len(deltaData) >= full {
		t.Fatalf("delta %d bytes >= full image %d bytes", len(deltaData), full)
	}
}

func TestDiffStructuralChanges(t *testing.T) {
	small := imageFor(t, []string{"abc"})
	big := imageFor(t, []string{"abc", "ab{100}c", "[a-z]{3}x"})
	// Growth: new arrays arrive as full payloads.
	d := checkApply(t, small, big)
	if len(big.Arrays) > len(small.Arrays) && len(d.Replaces) == 0 {
		t.Fatal("array growth produced no replace records")
	}
	// Shrink: arrays disappear via NumArrays.
	d2 := checkApply(t, big, small)
	if d2.NumArrays != len(small.Arrays) {
		t.Fatalf("shrink delta NumArrays = %d, want %d", d2.NumArrays, len(small.Arrays))
	}
}

// TestApplyPropertyRandomPairs is the acceptance property test: for
// random pattern-set pairs drawn from the synthetic workloads,
// Apply(old, Diff(old, new)) == new bit-exactly, through a serialized
// delta.
func TestApplyPropertyRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"Snort", "ClamAV", "Prosite", "Suricata"}
	for trial := 0; trial < 8; trial++ {
		name := names[rng.Intn(len(names))]
		d := workload.MustGenerate(name, 0.08, rng.Int63())
		if len(d.Patterns) < 4 {
			continue
		}
		// old = random subset; new = old with random churn (drops and
		// replacements from a different generation).
		d2 := workload.MustGenerate(name, 0.08, rng.Int63())
		oldPats := append([]string(nil), d.Patterns...)
		newPats := append([]string(nil), oldPats...)
		churn := 1 + rng.Intn(len(newPats)/2)
		for k := 0; k < churn; k++ {
			i := rng.Intn(len(newPats))
			newPats[i] = d2.Patterns[rng.Intn(len(d2.Patterns))]
		}
		if rng.Intn(2) == 0 {
			newPats = newPats[:len(newPats)-rng.Intn(len(newPats)/4+1)]
		}
		oldImg := buildOrSkip(t, oldPats)
		newImg := buildOrSkip(t, newPats)
		if oldImg == nil || newImg == nil {
			continue
		}
		checkApply(t, oldImg, newImg)
		checkApply(t, newImg, oldImg) // and the reverse direction
	}
}

func buildOrSkip(t *testing.T, patterns []string) *bitstream.Image {
	t.Helper()
	res := compile.Compile(patterns, compile.Options{})
	if len(res.Errors) != 0 {
		return nil
	}
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		return nil
	}
	img, err := bitstream.Build(res, p)
	if err != nil {
		return nil
	}
	return img
}

func TestApplyRejectsWrongBase(t *testing.T) {
	a := imageFor(t, []string{"cat"})
	b := imageFor(t, []string{"dog"})
	c := imageFor(t, []string{"fish"})
	d := Diff(a, b)
	if _, err := Apply(c, d); err == nil {
		t.Fatal("delta applied to the wrong base image")
	}
}

func TestParseDeltaRejectsCorruption(t *testing.T) {
	old := imageFor(t, []string{"cat", "dog"})
	new := imageFor(t, []string{"cat", "bird"})
	data, err := Diff(old, new).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDelta(nil); err == nil {
		t.Error("empty delta accepted")
	}
	if _, err := ParseDelta(data[:10]); err == nil {
		t.Error("truncated delta accepted")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xff
	if _, err := ParseDelta(bad); err == nil {
		t.Error("corrupted delta accepted")
	}
}

func TestCostIncrementalBelowFull(t *testing.T) {
	old := imageFor(t, []string{"cat", "dog", "fish", "ab{20,48}c"})
	new := imageFor(t, []string{"cat", "dog", "hawk", "ab{20,48}c"})
	d := Diff(old, new)
	incr := CostOf(d)
	full := FullCost(new)
	if incr.ConfigBits >= full.ConfigBits {
		t.Errorf("incremental bits %d >= full %d", incr.ConfigBits, full.ConfigBits)
	}
	if incr.ReloadCycles >= full.ReloadCycles {
		t.Errorf("incremental cycles %d >= full %d", incr.ReloadCycles, full.ReloadCycles)
	}
	if incr.EnergyPJ >= full.EnergyPJ {
		t.Errorf("incremental energy %.1f >= full %.1f", incr.EnergyPJ, full.EnergyPJ)
	}
	if incr.LatencyUS() <= 0 {
		t.Errorf("latency = %v", incr.LatencyUS())
	}
}

func TestCostEmptyDeltaIsZero(t *testing.T) {
	img := imageFor(t, []string{"cat"})
	c := CostOf(Diff(img, img))
	if c.ConfigBits != 0 || c.EnergyPJ != 0 {
		t.Errorf("empty delta cost = %+v", c)
	}
}

func TestScheduleTouchedBanksOnly(t *testing.T) {
	// Enough patterns to spread over multiple arrays, then churn one rule.
	d := workload.MustGenerate("Snort", 0.2, 3)
	oldPats := d.Patterns
	newPats := append([]string(nil), oldPats...)
	newPats[0] = "zzzzneverbeforeseen"
	old := imageFor(t, oldPats)
	new := imageFor(t, newPats)
	if len(old.Arrays) != len(new.Arrays) {
		t.Skipf("placement shape changed (%d vs %d arrays); churn test needs stable shape",
			len(old.Arrays), len(new.Arrays))
	}
	delta := Diff(old, new)
	plan, err := Schedule(delta, new)
	if err != nil {
		t.Fatal(err)
	}
	touched := delta.TouchedArrays()
	if len(plan.Steps) != len(touched) {
		t.Fatalf("%d steps for %d touched arrays", len(plan.Steps), len(touched))
	}
	if plan.UntouchedArrays != len(new.Arrays)-len(touched) {
		t.Errorf("untouched = %d", plan.UntouchedArrays)
	}
	if len(touched) > 0 && plan.StallCycles <= 0 {
		t.Error("touched delta has zero stall")
	}
	// Steps within one bank must not overlap (bus serialization).
	byBank := map[int][]ArrayStep{}
	for _, st := range plan.Steps {
		byBank[st.Bank] = append(byBank[st.Bank], st)
		if st.EndCycle-st.StartCycle != st.ReloadCycles {
			t.Errorf("step %+v: window != reload", st)
		}
		if st.EndCycle > plan.StallCycles {
			t.Errorf("step %+v ends after stall window %d", st, plan.StallCycles)
		}
	}
	for bank, steps := range byBank {
		for i := 1; i < len(steps); i++ {
			if steps[i].StartCycle < steps[i-1].EndCycle {
				t.Errorf("bank %d reloads overlap: %+v then %+v", bank, steps[i-1], steps[i])
			}
		}
	}
}

func TestScheduleEmptyDelta(t *testing.T) {
	img := imageFor(t, []string{"cat"})
	plan, err := Schedule(Diff(img, img), img)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StallCycles != 0 || len(plan.Steps) != 0 {
		t.Errorf("empty plan = %+v", plan)
	}
	if plan.UntouchedArrays != len(img.Arrays) {
		t.Errorf("untouched = %d, want all %d", plan.UntouchedArrays, len(img.Arrays))
	}
}

func TestScheduleNBVAQuiesceIncludesDepth(t *testing.T) {
	old := imageFor(t, []string{"ab{100}c"})
	new := imageFor(t, []string{"ab{120}c"})
	plan, err := Schedule(Diff(old, new), new)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("no steps")
	}
	found := false
	for _, st := range plan.Steps {
		a := &new.Arrays[st.Array]
		if a.Mode == arch.ModeNBVA {
			found = true
			if st.QuiesceCycles != quiesceFlushCycles+int64(a.Depth) {
				t.Errorf("NBVA quiesce = %d, want %d", st.QuiesceCycles, quiesceFlushCycles+int64(a.Depth))
			}
		}
	}
	if !found {
		t.Skip("no NBVA array in placement")
	}
}

// tenthSwappedImages builds the two Snort@1.0 images the ledger's hot_swap
// workload alternates between.
func tenthSwappedImages(t testing.TB) (base, next *bitstream.Image) {
	d := workload.MustGenerate("Snort", 1, 1)
	other := workload.MustGenerate("Snort", 1, 2)
	swapped := append([]string(nil), d.Patterns...)
	for i := 0; i < len(swapped) && i < len(other.Patterns); i += 10 {
		swapped[i] = other.Patterns[i]
	}
	return imageFor(t, d.Patterns), imageFor(t, swapped)
}

// Diffing an image against an equal one (a distinct copy, so nothing is
// decided by pointer) emits nothing and allocates only the Delta: every
// tile is dismissed by comparing its fixed-size tables, and the checksums
// are streamed.
func TestDiffSkipsEqualTiles(t *testing.T) {
	img, _ := tenthSwappedImages(t)
	twin, err := bitstream.Parse(marshalled(t, img))
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(img, twin)
	if d.Records() != 0 || d.BaseCRC != d.TargetCRC {
		t.Fatalf("diff of equal images: %d records, CRCs %08x/%08x", d.Records(), d.BaseCRC, d.TargetCRC)
	}
	// (sync.Pool drops a quarter of its Puts under the race detector.)
	if allocs := testing.AllocsPerRun(20, func() { Diff(img, twin) }); allocs > 1 && !raceEnabled {
		t.Errorf("diff of equal images allocates %.0f times, want the Delta alone", allocs)
	}
	if c := CostOf(d); c != (Cost{}) {
		t.Errorf("empty delta priced at %+v", c)
	}
}

// Apply builds the target image — one copy of the base's arrays — and
// nothing of that size besides: verifying the base and the result against
// the delta's CRCs once marshalled both images.
func TestApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	base, next := tenthSwappedImages(t)
	d := Diff(base, next)
	const runs = 20
	var err error
	perRun := int(allocated(func() {
		for i := 0; i < runs && err == nil; i++ {
			_, err = Apply(base, d)
		}
	}) / runs)
	if err != nil {
		t.Fatal(err)
	}
	if limit := next.SizeBytes() * 3 / 2; perRun > limit {
		t.Errorf("Apply allocates %d bytes for a %d-byte image, limit %d", perRun, next.SizeBytes(), limit)
	}
}

// TestDeltaSizeBytes: SizeBytes is the length MarshalBinary writes, on
// deltas with a random number of records in every section.
func TestDeltaSizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := &Delta{NumArrays: rng.Intn(4)}
		for i := rng.Intn(3); i > 0; i-- {
			a := bitstream.ArrayConfig{Tiles: make([]*bitstream.TileConfig, rng.Intn(3)), GlobalSwitch: new([256 * 256 / 8]byte)}
			for ti := range a.Tiles {
				a.Tiles[ti] = &bitstream.TileConfig{BVs: make([]bitstream.BVConfig, rng.Intn(4))}
			}
			d.Replaces = append(d.Replaces, ArrayReplace{Config: a})
		}
		for i := rng.Intn(5); i > 0; i-- {
			d.TileMetas = append(d.TileMetas, TileMetaUpdate{BVs: make([]bitstream.BVConfig, rng.Intn(5))})
		}
		d.Headers = make([]HeaderUpdate, rng.Intn(5))
		d.Codes = make([]CodeUpdate, rng.Intn(50))
		d.LocalRows = make([]LocalRowUpdate, rng.Intn(50))
		d.GlobalRows = make([]GlobalRowUpdate, rng.Intn(50))
		data, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if d.SizeBytes() != len(data) {
			t.Fatalf("trial %d: SizeBytes %d, marshalled %d bytes", trial, d.SizeBytes(), len(data))
		}
	}
}
