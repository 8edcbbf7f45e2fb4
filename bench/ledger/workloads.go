package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/automata"
	"repro/internal/regexast"
	"repro/internal/workload"
	"repro/pkg/rapclient"
)

// Traffic shapes. Each workload is one of them over its own inputs.
const (
	closedLoop = iota // every client sends its next scan when the last returns
	openLoop          // scans leave on a fixed schedule; latency runs from the due time
	hotSwap           // client A re-PUTs the ruleset while client B streams sessions
	clusterHop        // closed loop through the non-owner gateways of a 3-node cluster
)

// rulesetSeed pins every generated ruleset. -seed varies only the bytes
// scanned, so two seeds load the same engines with different traffic.
const rulesetSeed = 1

// literalCount is the `.keyNN.` ruleset size: inside the 2-32 literal
// band where the prefilter picks the teddy tier.
const literalCount = 24

// sessionChunks is how many equal chunks a streamed body is fed in.
const sessionChunks = 8

// spec is one pinned workload: what is sent, how, and why it is here.
type spec struct {
	name    string
	why     string
	shape   int
	rate    float64 // open loop: requests per second over all clients
	bodyLen int
	bodies  int // distinct bodies the clients cycle through
	every   int // literal rulesets: one planted match per this many bytes
	snort   float64
	warmOps int // per client, inside setup_s
	replay  int // ops of the traced replay
}

var specs = []spec{
	{name: "literal_bulk", shape: closedLoop, bodyLen: 1 << 20, bodies: 2, every: 4096, warmOps: 150, replay: 48,
		why: "1 MiB scans of 24 prefilterable literals: simdscan+prefilter and the HTTP body path do the work, engines idle"},
	{name: "dataset_bulk", shape: closedLoop, bodyLen: 16 << 10, bodies: 8, snort: 0.2, warmOps: 24, replay: 24,
		why: "16 KiB scans of Snort@0.2: always-on nbva/automata/shiftand engines are >75% of the op, prefilter and HTTP are noise"},
	{name: "small_dense", shape: openLoop, rate: 4000, bodyLen: 2 << 10, bodies: 64, every: 64, warmOps: 2000, replay: 400,
		why: "open loop 4000 req/s of 2 KiB scans with 32 matches each: per-request cost dominates, kernels do little"},
	{name: "hot_swap", shape: hotSwap, bodyLen: 16 << 10, bodies: 4, snort: 1.0, warmOps: 6, replay: 8,
		why: "PUT updates alternating two Snort@1.0 rulesets beside streamed sessions: compile path and scan path share the box"},
	{name: "cluster_hop", shape: clusterHop, bodyLen: 256 << 10, bodies: 4, every: 4096, warmOps: 64, replay: 48,
		why: "256 KiB literal scans through non-owner gateways of a 3-node cluster: every op pays exactly one proxy forward"},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything a workload sends plus what must come back.
// rules[0] is the ruleset compiled at set-up; rules[1] is the one
// updates swap in (hot_swap alternates the two; elsewhere it only feeds
// the update/reconfig layer rows). want[g][b] is the oracle's match set
// for body b under rules[g].
type inputs struct {
	rules  [2][]string
	bodies [][]byte
	want   [2][][]rapclient.Match
	sha256 string
}

func generate(s spec, seed int64) (*inputs, error) {
	in := &inputs{}
	rng := rand.New(rand.NewSource(seed))
	if s.snort > 0 {
		d, err := workload.Generate("Snort", s.snort, rulesetSeed)
		if err != nil {
			return nil, err
		}
		other, err := workload.Generate("Snort", s.snort, rulesetSeed+1)
		if err != nil {
			return nil, err
		}
		// Every tenth pattern differs between the two generations.
		in.rules[0] = d.Patterns
		in.rules[1] = append([]string(nil), d.Patterns...)
		var swapped []string
		for i := 0; i < len(d.Patterns); i += 10 {
			in.rules[1][i] = other.Patterns[i]
			swapped = append(swapped, d.Patterns[i], other.Patterns[i])
		}
		for b := 0; b < s.bodies; b++ {
			body := d.Input(s.bodyLen, rng.Int63())
			// Plant a few exemplars of the swapped patterns so the two
			// generations answer differently on every body.
			for k := 0; k < 4; k++ {
				ex := workload.Exemplar(swapped[rng.Intn(len(swapped))], rng)
				if len(ex) > 0 && len(ex) < len(body) {
					copy(body[rng.Intn(len(body)-len(ex)):], ex)
				}
			}
			in.bodies = append(in.bodies, body)
		}
	} else {
		for i := 0; i < literalCount; i++ {
			in.rules[0] = append(in.rules[0], fmt.Sprintf(".key%02d.", i))
		}
		in.rules[1] = append([]string(nil), in.rules[0]...)
		in.rules[1][7], in.rules[1][19] = ".kex07.", ".kex19."
		for b := 0; b < s.bodies; b++ {
			in.bodies = append(in.bodies, literalBody(s.bodyLen, s.every, rng))
		}
	}

	h := sha256.New()
	for _, rs := range in.rules {
		for _, p := range rs {
			fmt.Fprintf(h, "%s\n", p)
		}
	}
	for _, b := range in.bodies {
		h.Write(b)
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))

	or, err := newOracle(in.rules[0], in.rules[1])
	if err != nil {
		return nil, err
	}
	for g := range in.rules {
		in.want[g] = or.matchAll(in.rules[g], in.bodies)
	}
	return in, nil
}

// literalBody is the `.keyNN.` traffic of experiments/scan.go: noise over
// 'i'..'z', which no literal can start in, with one literal planted per
// `every` bytes.
func literalBody(size, every int, rng *rand.Rand) []byte {
	body := make([]byte, size)
	for i := range body {
		body[i] = byte('i' + rng.Intn(18))
	}
	for p := every / 2; p+8 < size; p += every {
		copy(body[p:], fmt.Sprintf("key%02d", rng.Intn(literalCount)))
	}
	return body
}

// oracle answers "which matches must a scan report" without any engine
// under test: one Glushkov NFA per pattern, stepped over every byte by
// the automata package's reference bitset simulator.
type oracle struct {
	nfas map[string]*automata.NFA
}

func newOracle(rulesets ...[]string) (*oracle, error) {
	o := &oracle{nfas: map[string]*automata.NFA{}}
	for _, rs := range rulesets {
		for _, p := range rs {
			if o.nfas[p] != nil {
				continue
			}
			re, err := regexast.Parse(p)
			if err != nil {
				return nil, fmt.Errorf("oracle: %q: %w", p, err)
			}
			n, err := automata.Glushkov(re, automata.DefaultMaxStates)
			if err != nil {
				return nil, fmt.Errorf("oracle: %q: %w", p, err)
			}
			o.nfas[p] = n
		}
	}
	return o, nil
}

// match returns the canonical match set of rules over body.
func (o *oracle) match(rules []string, body []byte) []rapclient.Match {
	var out []rapclient.Match
	for i, p := range rules {
		for _, end := range o.nfas[p].MatchEnds(body) {
			if end >= 0 { // -1 is "matches before any input", never served
				out = append(out, rapclient.Match{Pattern: i, End: end})
			}
		}
	}
	return canonical(out)
}

func (o *oracle) matchAll(rules []string, bodies [][]byte) [][]rapclient.Match {
	out := make([][]rapclient.Match, len(bodies))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for b := range bodies {
		wg.Add(1)
		sem <- struct{}{}
		go func(b int) {
			defer wg.Done()
			out[b] = o.match(rules, bodies[b])
			<-sem
		}(b)
	}
	wg.Wait()
	return out
}

// canonical sorts ms by (End, Pattern) and drops repeats in place: the
// engines report a pattern once per final state that fires, the contract
// is about the set.
func canonical(ms []rapclient.Match) []rapclient.Match {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
	out := ms[:0]
	for i, m := range ms {
		if i == 0 || m != ms[i-1] {
			out = append(out, m)
		}
	}
	return out
}

// sameSet reports whether a response's matches equal the oracle's.
func sameSet(got, want []rapclient.Match) bool {
	got = canonical(append([]rapclient.Match(nil), got...))
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
