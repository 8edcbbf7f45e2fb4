package shiftand_test

import (
	"fmt"

	"repro/internal/charclass"
	"repro/internal/shiftand"
)

// Example walks the paper's Fig 2: executing the linear pattern a[bc]. with
// Shift-And over the input "abc" — the match fires after the third symbol.
func Example() {
	pattern := shiftand.Pattern{
		charclass.Single('a'),
		charclass.Of('b', 'c'),
		charclass.Any(),
	}
	m, err := shiftand.New([]shiftand.Pattern{pattern})
	if err != nil {
		panic(err)
	}
	r := shiftand.NewRunner(m)
	for i, b := range []byte("abc") {
		fired := r.Step(b)
		fmt.Printf("after %q: %d active states, %d matches\n", b, r.StatesRef().Count(), len(fired))
		_ = i
	}
	// Output:
	// after 'a': 1 active states, 0 matches
	// after 'b': 1 active states, 0 matches
	// after 'c': 1 active states, 1 matches
}

// Example_multiPattern packs several patterns into one machine, the basis
// of RAP's LNFA binning.
func Example_multiPattern() {
	pats := []shiftand.Pattern{
		{charclass.Single('h'), charclass.Single('i')},
		{charclass.Single('h'), charclass.Single('o'), charclass.Single('t')},
	}
	m, err := shiftand.New(pats)
	if err != nil {
		panic(err)
	}
	r := shiftand.NewRunner(m)
	for i, b := range []byte("hi, it is hot") {
		for _, p := range r.Step(b) {
			fmt.Printf("pattern %d ends at offset %d\n", p, i)
		}
	}
	// Output:
	// pattern 0 ends at offset 1
	// pattern 1 ends at offset 12
}
