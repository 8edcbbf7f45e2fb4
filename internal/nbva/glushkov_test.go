package nbva_test

import (
	"slices"
	"testing"

	"repro/internal/automata"
	"repro/internal/nbva"
	"repro/internal/regexast"
	"repro/internal/workload"
)

// boundFree reports whether n has no repetition other than *, + and ?:
// nothing the NBVA route would keep as a BV-STE or refuse.
func boundFree(n regexast.Node) bool {
	var subs []regexast.Node
	switch t := n.(type) {
	case *regexast.Concat:
		subs = t.Subs
	case *regexast.Alt:
		subs = t.Subs
	case *regexast.Repeat:
		loop := t.Max == regexast.Unbounded && t.Min <= 1
		if !loop && (t.Min != 0 || t.Max != 1) {
			return false
		}
		subs = []regexast.Node{t.Sub}
	}
	for _, s := range subs {
		if !boundFree(s) {
			return false
		}
	}
	return true
}

// TestRoutesShareOneConstruction: on a bound-free pattern the NBVA route
// and the NFA route are one Glushkov construction. For every such pattern
// of each seeded dataset, ConstructFromNode gives the states (class and
// follow order), initial, final and MatchesEmpty that automata.Glushkov
// gives, and no BV-STE.
func TestRoutesShareOneConstruction(t *testing.T) {
	checked := 0
	for _, name := range workload.Names {
		d, err := workload.Generate(name, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.Patterns {
			re, err := regexast.Parse(p)
			if err != nil || !boundFree(re.Root) {
				continue
			}
			want, err := automata.Glushkov(re, 0)
			if err != nil {
				t.Fatalf("%s %q: Glushkov: %v", name, p, err)
			}
			got, err := nbva.ConstructFromNode(re.Root)
			if err != nil {
				t.Fatalf("%s %q: ConstructFromNode: %v", name, p, err)
			}
			if got.NumStates() != want.NumStates() || !slices.Equal(got.Initial, want.Initial) ||
				!slices.Equal(got.Final, want.Final) || got.MatchesEmpty != want.MatchesEmpty {
				t.Fatalf("%s %q: NBVA has %d states, initial %v, final %v, empty %v; NFA %d, %v, %v, %v", name, p,
					got.NumStates(), got.Initial, got.Final, got.MatchesEmpty,
					want.NumStates(), want.Initial, want.Final, want.MatchesEmpty)
			}
			for i, s := range got.States {
				if s.BV != nil || s.Class != want.States[i].Class || !slices.Equal(s.Follow, want.States[i].Follow) {
					t.Fatalf("%s %q: state %d is %+v, NFA's is %+v", name, p, i, s, want.States[i])
				}
			}
			checked++
		}
	}
	if checked < 400 {
		t.Errorf("only %d bound-free patterns checked", checked)
	}
	t.Logf("%d bound-free patterns", checked)
}
