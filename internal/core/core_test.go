package core

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/workload"
)

func TestEngineEndToEnd(t *testing.T) {
	eng := NewDefault()
	patterns := []string{"needle", "x{100}y", "a(b|c)*d"}
	prog, err := eng.Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if prog.STEs() == 0 {
		t.Error("no STEs")
	}
	shares := prog.ModeShares()
	if len(shares) != 3 {
		t.Errorf("shares = %v", shares)
	}
	if prog.AreaMM2() <= 0 {
		t.Error("no area")
	}
	input := []byte("haystack with a needle in it")
	rep, err := eng.Run(prog, input)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches == 0 {
		t.Error("no matches")
	}
	matches, err := eng.Match(patterns, input)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(matches)) != rep.Matches {
		t.Errorf("software %d vs hardware %d matches", len(matches), rep.Matches)
	}
}

func TestEngineCompileError(t *testing.T) {
	eng := NewDefault()
	if _, err := eng.Compile([]string{"("}); err == nil {
		t.Error("expected compile error")
	}
}

// TestCompareEveryArch holds the five §5 architectures to §5.2's
// consistency check on a dataset that exercises all three modes: every
// simulator reports the software matcher's match count.
func TestCompareEveryArch(t *testing.T) {
	eng := NewDefault()
	d := workload.MustGenerate("Snort", 0.1, 3)
	input := d.Input(4000, 1)
	ref, err := eng.Match(d.Patterns, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("input matches nothing")
	}
	reps, err := eng.Compare(d.Patterns, input, Archs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(Archs) {
		t.Fatalf("%d reports for %d archs", len(reps), len(Archs))
	}
	for i, rep := range reps {
		if rep.Arch != string(Archs[i]) {
			t.Errorf("report %d: Arch = %q, want %q", i, rep.Arch, Archs[i])
		}
		if rep.Matches != int64(len(ref)) {
			t.Errorf("%s matches = %d, refmatch = %d", Archs[i], rep.Matches, len(ref))
		}
	}
	if _, err := eng.Compare(d.Patterns, input, RAP, "XYZ"); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestChooseDepthSweep(t *testing.T) {
	eng := NewDefault()
	d := workload.MustGenerate("Yara", 0.15, 3)
	input := d.Input(5000, 1)
	depth, points, err := eng.ChooseDepth(d.Patterns, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	valid := map[int]bool{4: true, 8: true, 16: true, 32: true}
	if !valid[depth] {
		t.Errorf("chosen depth = %d", depth)
	}
	// Monotone area: deeper BVs never increase area.
	for i := 1; i < len(points); i++ {
		if points[i].AreaMM2 > points[i-1].AreaMM2+1e-9 {
			t.Errorf("area not monotone: %v", points)
		}
	}
}

func TestChooseDepthNoNBVA(t *testing.T) {
	eng := NewDefault()
	depth, points, err := eng.ChooseDepth([]string{"abc"}, []byte("abc"))
	if err != nil || depth != 8 || points != nil {
		t.Errorf("depth=%d points=%v err=%v", depth, points, err)
	}
}

func TestChooseBinSizeSweep(t *testing.T) {
	eng := NewDefault()
	d := workload.MustGenerate("Prosite", 0.3, 3)
	input := d.Input(5000, 1)
	bs, points, err := eng.ChooseBinSize(d.Patterns, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	if bs < 1 || bs > 32 {
		t.Errorf("chosen bin = %d", bs)
	}
}

func TestProgramModeShares(t *testing.T) {
	eng := NewDefault()
	d := workload.MustGenerate("ClamAV", 0.1, 5)
	prog, err := eng.Compile(d.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if prog.ModeShares()[compile.ModeNBVA] < 0.5 {
		t.Errorf("ClamAV NBVA share = %v", prog.ModeShares())
	}
}
