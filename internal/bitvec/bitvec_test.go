package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 4064} {
		v := New(n)
		if v.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, v.Len())
		}
		if v.Any() {
			t.Errorf("New(%d) not zero", n)
		}
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Count() != len(idx) {
		t.Errorf("Count = %d, want %d", v.Count(), len(idx))
	}
	v.Reset()
	if v.Any() {
		t.Error("vector not empty after Reset")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Set")
		}
	}()
	v := New(8)
	v.Set(8)
}

func TestShiftLeft(t *testing.T) {
	// Paper example: shft([0,1,0]) = [0,0,1]; index 1 set -> index 2 set.
	v := New(3)
	v.Set(1)
	v.ShiftLeft()
	if v.Get(1) || !v.Get(2) || v.Get(0) {
		t.Errorf("ShiftLeft([0,1,0]) = %s, want 100", v)
	}
	// Top bit falls off.
	v.ShiftLeft()
	if v.Any() {
		t.Errorf("expected empty after overflow shift, got %s", v)
	}
}

func TestShiftLeftAcrossWords(t *testing.T) {
	v := New(130)
	v.Set(63)
	v.ShiftLeft()
	if !v.Get(64) || v.Get(63) {
		t.Errorf("shift across word boundary failed: %v", v.Words())
	}
	v.Set(127)
	v.ShiftLeft()
	if !v.Get(65) || !v.Get(128) {
		t.Errorf("second cross-word shift failed")
	}
}

func TestLogicOps(t *testing.T) {
	a, b := New(4), New(4) // 1100 and 1010
	a.Set(3)
	a.Set(2)
	b.Set(3)
	b.Set(1)
	and := a.Clone()
	and.And(b)
	if and.String() != "1000" {
		t.Errorf("And = %s", and)
	}
	or := a.Clone()
	or.Or(b)
	if or.String() != "1110" {
		t.Errorf("Or = %s", or)
	}
}

func TestNextSet(t *testing.T) {
	v := New(200)
	want := []int{3, 64, 65, 190}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	if v.NextSet(191) != -1 {
		t.Error("NextSet past last set bit should be -1")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(70)
	a.Set(69)
	b := New(70)
	b.CopyFrom(a)
	if !b.Get(69) {
		t.Error("CopyFrom did not copy")
	}
	a.Reset()
	if !b.Get(69) {
		t.Error("CopyFrom aliases source")
	}
}

// randomVector builds a vector of length n with bits drawn from r, for
// property tests.
func randomVector(r *rand.Rand, n int) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

func TestPropCountMatchesNextSetWalk(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%300 + 1
		r := rand.New(rand.NewSource(seed))
		v := randomVector(r, n)
		walk := 0
		for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
			walk++
		}
		return walk == v.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDeMorgan(t *testing.T) {
	// count(a AND b) + count(a OR b) == count(a) + count(b)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%128 + 1
		r := rand.New(rand.NewSource(seed))
		a := randomVector(r, n)
		b := randomVector(r, n)
		and := a.Clone()
		and.And(b)
		or := a.Clone()
		or.Or(b)
		return and.Count()+or.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkShiftLeft4096(b *testing.B) {
	v := New(4096)
	v.Set(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.ShiftLeft()
		if v.None() {
			v.Set(0)
		}
	}
}
