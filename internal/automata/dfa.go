package automata

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/charclass"
)

// This file holds the repo's one capped subset construction, behind the
// one DFA type: BuildDFA determinizes the disjoint union of its members,
// and one pattern is the union of one. §2.1 notes that unfolding bounded
// repetitions "can produce a DFA of size exponential in n"; BuildDFA's
// NumStates and its cap failure make that blowup measurable per regex
// (rapc -analyze, -exp characterize), and the software matcher keeps a
// DFA only where it fits a cap: the per-pattern tables of the wake loop,
// the windowed group's unions and the union machine of the parallel scan.

// ErrStateCapExceeded is the typed cap-overflow failure of subset
// construction: BuildDFA returns an error wrapping it when the reachable
// subset-state count exceeds the cap, so fallback logic (refmatch engine
// choice, the windowed group's packing, sfa parallel-scan eligibility)
// can branch on errors.Is instead of matching message text.
var ErrStateCapExceeded = errors.New("automata: subset construction exceeds state cap")

// subsets is the outcome of a subset construction: a streaming DFA
// without report tables. State 0 is the start: nothing is active before
// the first byte.
type subsets struct {
	// partition maps each input byte to its alphabet-equivalence class:
	// bytes no state's character class distinguishes share one.
	partition [256]uint16
	// numParts is the number of alphabet classes (the per-state fanout).
	numParts int
	// trans is the transition table: state*numParts + class -> state.
	trans []int32
	// sets[s] is the set of NFA states active in DFA state s.
	sets []bitvec.Vector
}

// determinize runs subset construction over the streaming configuration
// space of a homogeneous automaton given as per-state classes, follow
// masks and the initial set, from the empty subset. Unanchored, initial
// states are re-injected on every step, so state 0 is the empty subset.
// Start-anchored, state 0 is the only one that injects them, and the
// empty subset reached later is a dead state of its own. It fails with
// an error wrapping ErrStateCapExceeded once more than cap subsets are
// reachable.
func determinize(classes []charclass.Class, follow []bitvec.Vector, initial bitvec.Vector, anchored bool, cap int) (*subsets, error) {
	d := &subsets{}
	var labels []bitvec.Vector
	d.partition, labels = alphabetPartitions(classes)
	d.numParts = len(labels)

	// Subsets are built in scratch and looked up by their words as a map
	// key; only a subset not seen before is copied and kept.
	index := map[string]int32{}
	var key []byte
	intern := func(v bitvec.Vector) int32 {
		key = appendKey(key[:0], v)
		id, ok := index[string(key)]
		if !ok {
			id = int32(len(d.sets))
			index[string(key)] = id
			d.sets = append(d.sets, v.Clone())
		}
		return id
	}
	succ, next := bitvec.New(len(classes)), bitvec.New(len(classes))
	if intern(next); anchored {
		clear(index) // no later subset is the start
	}
	for head := 0; head < len(d.sets); head++ {
		cur := d.sets[head]
		succ.Reset()
		if !anchored || head == 0 {
			succ.Or(initial)
		}
		for q := cur.NextSet(0); q >= 0; q = cur.NextSet(q + 1) {
			succ.Or(follow[q])
		}
		for _, label := range labels {
			next.CopyFrom(succ)
			next.And(label)
			d.trans = append(d.trans, intern(next))
			if len(d.sets) > cap {
				return nil, fmt.Errorf("%w: >%d states", ErrStateCapExceeded, cap)
			}
		}
	}
	return d, nil
}

// alphabetPartitions partitions the alphabet under the given state
// classes: the byte -> class map, and per class the label vector of the
// states whose character class contains its bytes. Classes are numbered
// by their smallest byte.
//
// The alphabet starts as one 256-bit block, and each state class splits
// every block it cuts into the bytes it holds and the bytes it does not.
// Only the blocks the class's bytes fall in are visited, and a class and
// its complement cut alike, so a class is walked from its smaller side; a
// class equal to the previous state's cuts nothing new and is skipped.
func alphabetPartitions(classes []charclass.Class) (partition [256]uint16, labels []bitvec.Vector) {
	blocks := []charclass.Class{charclass.Any()}
	var blockOf [256]uint16
	for q, cl := range classes {
		if q > 0 && cl == classes[q-1] {
			continue
		}
		if cl.Count() > charclass.AlphabetSize/2 {
			cl = cl.Negate()
		}
		for rest := cl; !rest.IsEmpty(); {
			k := blockOf[rest.Sample()]
			in := blocks[k].Intersect(cl)
			if rest = rest.Minus(in); in == blocks[k] {
				continue
			}
			blocks[k] = blocks[k].Minus(in)
			for w, word := range in {
				for ; word != 0; word &= word - 1 {
					blockOf[w*64+bits.TrailingZeros64(word)] = uint16(len(blocks))
				}
			}
			blocks = append(blocks, in)
		}
	}
	// Number the blocks by their smallest byte, and label each with the
	// states whose class holds that byte.
	var number [256]uint16 // per block, its number + 1
	var reps []byte
	for c := range partition {
		k := blockOf[c]
		if number[k] == 0 {
			reps = append(reps, byte(c))
			number[k] = uint16(len(reps))
		}
		partition[c] = number[k] - 1
	}
	labels = make([]bitvec.Vector, len(reps))
	bitvec.NewSlab(labels, len(classes))
	for q, cl := range classes {
		for k, c := range reps {
			if cl.Contains(c) {
				labels[k].Set(q)
			}
		}
	}
	return partition, labels
}

// appendKey appends v's words to buf, the form subsets are hashed in.
func appendKey(buf []byte, v bitvec.Vector) []byte {
	for _, w := range v.Words() {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}
