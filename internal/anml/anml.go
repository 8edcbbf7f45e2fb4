// Package anml writes ANML, the Automata Network Markup Language of the
// Micron Automata Processor SDK (the format ANMLZoo [46] distributes its
// benchmarks in, and the lingua franca of AP-ecosystem tools like VASim).
// It covers the homogeneous state-transition-element subset that
// AP-style hardware executes, and is export only: nothing here parses
// external ANML.
//
//	<anml version="1.0">
//	  <automata-network id="net0">
//	    <state-transition-element id="q0" symbol-set="[ab]" start="all-input">
//	      <activate-on-match element="q1"/>
//	    </state-transition-element>
//	    <state-transition-element id="q1" symbol-set="c">
//	      <report-on-match/>
//	    </state-transition-element>
//	  </automata-network>
//	</anml>
package anml

import (
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/automata"
)

// Start modes of an STE; a non-initial STE omits the attribute.
const (
	StartAllInput = "all-input"
	StartOfData   = "start-of-data"
)

// Document is the root <anml> element.
type Document struct {
	XMLName  xml.Name  `xml:"anml"`
	Version  string    `xml:"version,attr"`
	Networks []Network `xml:"automata-network"`
}

// Network is one <automata-network>.
type Network struct {
	ID   string `xml:"id,attr"`
	STEs []STE  `xml:"state-transition-element"`
}

// STE is one <state-transition-element>.
type STE struct {
	ID        string     `xml:"id,attr"`
	SymbolSet string     `xml:"symbol-set,attr"`
	Start     string     `xml:"start,attr,omitempty"`
	Activate  []Activate `xml:"activate-on-match"`
	Report    *Report    `xml:"report-on-match"`
}

// Activate is an <activate-on-match element="..."/> edge.
type Activate struct {
	Element string `xml:"element,attr"`
}

// Report marks a reporting STE.
type Report struct {
	ReportCode string `xml:"reportcode,attr,omitempty"`
}

// FromNFA converts a homogeneous NFA into an ANML network.
func FromNFA(id string, nfa *automata.NFA) Network {
	net := Network{ID: id}
	initials := map[int]bool{}
	for _, q := range nfa.Initial {
		initials[q] = true
	}
	finals := map[int]bool{}
	for _, q := range nfa.Final {
		finals[q] = true
	}
	for i, s := range nfa.States {
		ste := STE{
			ID:        fmt.Sprintf("q%d", i),
			SymbolSet: s.Class.String(),
		}
		if initials[i] {
			if nfa.StartAnchored {
				ste.Start = StartOfData
			} else {
				ste.Start = StartAllInput
			}
		}
		for _, succ := range s.Follow {
			ste.Activate = append(ste.Activate, Activate{Element: fmt.Sprintf("q%d", succ)})
		}
		if finals[i] {
			ste.Report = &Report{}
		}
		net.STEs = append(net.STEs, ste)
	}
	return net
}

// Write serializes a document as indented XML with a header.
func Write(w io.Writer, doc *Document) error {
	if doc.Version == "" {
		doc.Version = "1.0"
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}
