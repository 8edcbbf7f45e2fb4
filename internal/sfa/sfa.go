// Package sfa implements a Simultaneous Finite Automaton — the
// data-parallel single-stream scan engine of the serving stack. The
// construction follows Sin'ya & Matsuzaki's SFA idea: a chunk of input
// scanned by a DFA from *every* start state simultaneously yields a
// state-mapping function (a dense vector over the live states); mapping
// functions of adjacent chunks compose, so a buffer can be partitioned
// across workers, each chunk scanned independently, and the sequential
// dependency recovered by a cheap left-to-right join of the per-chunk
// functions. Match reporting is byte-exact versus serial scanning: the
// state trajectory of a chunk becomes entry-independent once all start
// states converge, so reports past the convergence point are collected
// during the simultaneous pass and only the (typically short) prefix is
// replayed once the true entry state is known.
//
// The DFA is an automata.DFA, the streaming DFA of the disjoint union of
// many pattern NFAs, with a per-member report list in each state, built
// by the one capped subset construction (DESIGN row 25) that every DFA of
// the repo comes from; this package adds only the simultaneous pass
// (MapChunk) and its state-mapping function.
package sfa
