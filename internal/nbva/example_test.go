package nbva_test

import (
	"fmt"
	"strings"

	"repro/internal/nbva"
	"repro/internal/regexast"
)

// Example compiles the paper's Example 2.2 regex a.*bc{7} into an NBVA:
// 4 control states instead of the 10 an unfolded NFA needs, with the
// c-repetition tracked in a 7-bit vector.
func Example() {
	re := regexast.MustParse("a.*bc{7}")
	root := regexast.SplitMinMax(regexast.UnfoldThreshold(re.Root, 1))
	m, err := nbva.ConstructFromNode(root)
	if err != nil {
		panic(err)
	}
	fmt.Printf("control states: %d (unfolded NFA would need %d)\n",
		m.NumStates(), m.UnfoldedStates())
	fmt.Printf("total BV bits: %d\n", m.TotalBVBits())
	fmt.Println("match ends, 7 c's:", m.MatchEnds([]byte("a..b"+strings.Repeat("c", 7))))
	fmt.Println("match ends, 6 c's:", m.MatchEnds([]byte("a..b"+strings.Repeat("c", 6))))
	// Output:
	// control states: 4 (unfolded NFA would need 10)
	// total BV bits: 7
	// match ends, 7 c's: [10]
	// match ends, 6 c's: []
}
