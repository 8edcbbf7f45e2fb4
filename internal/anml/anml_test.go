package anml

import (
	"bytes"
	"encoding/xml"
	"reflect"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/regexast"
)

func nfaOf(t *testing.T, pattern string) *automata.NFA {
	t.Helper()
	nfa, err := automata.Glushkov(regexast.MustParse(pattern), 0)
	if err != nil {
		t.Fatal(err)
	}
	return nfa
}

func TestFromNFAShape(t *testing.T) {
	net := FromNFA("ex", nfaOf(t, "a([bc]|b.*d)"))
	if len(net.STEs) != 5 {
		t.Fatalf("STEs = %d", len(net.STEs))
	}
	if net.STEs[0].Start != StartAllInput {
		t.Errorf("q0 start = %q", net.STEs[0].Start)
	}
	reports := 0
	for _, s := range net.STEs {
		if s.Report != nil {
			reports++
		}
	}
	if reports != 2 {
		t.Errorf("reporting STEs = %d", reports)
	}
}

// TestXMLRoundTrip pins the export: what Write emits is well-formed XML
// that decodes back to the same document.
func TestXMLRoundTrip(t *testing.T) {
	doc := &Document{}
	for _, p := range []string{"abc", "a(b|c)*d", "[a-z]x\\d", "^start"} {
		doc.Networks = append(doc.Networks, FromNFA(p, nfaOf(t, p)))
	}
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<anml version=\"1.0\">") {
		t.Errorf("missing root element:\n%s", buf.String())
	}
	var back Document
	if err := xml.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Networks, doc.Networks) {
		t.Errorf("networks changed across the round trip:\n got %+v\nwant %+v", back.Networks, doc.Networks)
	}
	if anchored := back.Networks[3].STEs[0].Start; anchored != StartOfData {
		t.Errorf("^start: q0 start = %q", anchored)
	}
}
