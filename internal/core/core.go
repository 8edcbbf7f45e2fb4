// Package core is the public API of the RAP reproduction: it wires the
// compiler (Fig 9 decision graph), the mapper (greedy placement, LNFA
// binning, NBVA splitting) and the cycle-level simulator into a single
// engine, and exposes the design-space exploration of §5.3 for choosing
// the BV depth and LNFA bin size per workload.
//
// Typical use:
//
//	eng := core.NewDefault()
//	prog, err := eng.Compile(patterns)
//	rep, err := eng.Run(prog, input)
//	fmt.Println(rep)                       // energy, area, throughput, ...
//	reps, err := eng.Compare(patterns, input, core.Archs...) // RAP vs the §5 baselines
//
// For pure software matching (no hardware model) use Match, which runs
// the Hyperscan-substitute reference matcher.
package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/mapper"
	"repro/internal/refmatch"
	"repro/internal/sim"
)

// Config controls compilation and mapping.
type Config struct {
	// Compile options (unfolding threshold, LNFA growth budget, ...).
	Compile compile.Options
	// Depth is the NBVA bit-vector depth; one of arch.BVDepths.
	// Default 8.
	Depth int
	// BinSize is the LNFA bin size; at most arch.MaxBinSize. Default 8.
	BinSize int
	// SharePrefixes merges NFA-mode regexes with common literal prefixes
	// into shared-trie union automata before mapping (the VASim-style
	// optimization; see compile.ShareNFAPrefixes).
	SharePrefixes bool
}

// Engine compiles and executes pattern sets on the modeled hardware.
type Engine struct {
	cfg Config
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// NewDefault returns an engine with the paper's default parameters.
func NewDefault() *Engine { return New(Config{}) }

// Program is a compiled and placed pattern set, ready to simulate.
type Program struct {
	Patterns  []string
	Result    *compile.Result
	Placement *arch.Placement
}

// Compile runs the decision graph and the mapper. Patterns that fail to
// compile are reported as an error (the engine is strict; use
// compile.Compile directly for partial tolerance).
func (e *Engine) Compile(patterns []string) (*Program, error) {
	res, p, err := e.load(fabric{}, patterns)
	if err != nil {
		return nil, err
	}
	return &Program{Patterns: patterns, Result: res, Placement: p}, nil
}

// Run simulates the program over the input and returns the full report.
func (e *Engine) Run(prog *Program, input []byte) (*sim.Report, error) {
	return sim.SimulateRAP(prog.Result, prog.Placement, input)
}

// ModeShares returns the Fig 1 statistic for the program.
func (p *Program) ModeShares() map[compile.Mode]float64 { return p.Result.ModeShares() }

// AreaMM2 returns the placed area without running a simulation.
func (p *Program) AreaMM2() float64 {
	a := sim.RAPArea(p.Placement)
	return a.TotalMM2()
}

// STEs returns the total hardware control states across modes.
func (p *Program) STEs() int {
	n := 0
	for i := range p.Result.Regexes {
		n += p.Result.Regexes[i].STEs
	}
	return n
}

// Arch names one of the §5 architectures Compare models.
type Arch string

// The architectures of Tables 2/3 and Fig 12.
const (
	RAP    Arch = "RAP"     // all three modes under the engine's options
	RAPNFA Arch = "RAP-NFA" // RAP hardware, everything unfolded to NFA
	CAMA   Arch = "CAMA"
	CA     Arch = "CA"
	BVAP   Arch = "BVAP"
)

// Archs lists every architecture in Table 2/3 column order.
var Archs = []Arch{RAP, RAPNFA, CAMA, BVAP, CA}

// fabric is how an architecture is loaded: the Fig 9 routes its compiler
// may take and the placer that packs the result. Architectures with equal
// fabrics run one compiled and placed program.
type fabric struct {
	policy compile.ModePolicy // PolicyDefault keeps the engine's own options
	bvap   bool               // BVAP's placer (sim.MapBVAP), not mapper.Map
}

// archs is the one place that knows the §5 architectures (§5.2: same
// circuit models, same greedy mapping): each one's fabric and simulator.
var archs = map[Arch]struct {
	fabric
	simulate func(a Arch, res *compile.Result, p *arch.Placement, input []byte) (*sim.Report, error)
}{
	RAP:    {fabric{}, simulateRAP},
	RAPNFA: {fabric{policy: compile.ForceNFA}, simulateRAP},
	CAMA:   {fabric{policy: compile.ForceNFA}, simulateBaseline},
	CA:     {fabric{policy: compile.ForceNFA}, simulateBaseline},
	BVAP:   {fabric{policy: compile.AllowNBVA, bvap: true}, simulateBVAP},
}

func simulateRAP(_ Arch, res *compile.Result, p *arch.Placement, input []byte) (*sim.Report, error) {
	return sim.SimulateRAP(res, p, input)
}

func simulateBaseline(a Arch, res *compile.Result, p *arch.Placement, input []byte) (*sim.Report, error) {
	return sim.SimulateBaseline(string(a), res, p, input)
}

func simulateBVAP(_ Arch, res *compile.Result, p *arch.Placement, input []byte) (*sim.Report, error) {
	return sim.SimulateBVAP(res, p, input)
}

// Compare compiles, places and simulates the patterns on each
// architecture and returns the reports in argument order, each stamped
// with its Arch. Architectures that share a fabric (RAP-NFA, CAMA, CA)
// share one compile and placement.
func (e *Engine) Compare(patterns []string, input []byte, as ...Arch) ([]*sim.Report, error) {
	type loaded struct {
		res *compile.Result
		p   *arch.Placement
	}
	programs := map[fabric]loaded{}
	reps := make([]*sim.Report, len(as))
	for i, a := range as {
		row, ok := archs[a]
		if !ok {
			return nil, fmt.Errorf("core: unknown architecture %q", a)
		}
		prog, ok := programs[row.fabric]
		if !ok {
			res, p, err := e.load(row.fabric, patterns)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a, err)
			}
			prog = loaded{res, p}
			programs[row.fabric] = prog
		}
		rep, err := row.simulate(a, prog.res, prog.p, input)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		rep.Arch = string(a)
		reps[i] = rep
	}
	return reps, nil
}

// load compiles the patterns for a fabric and places them; SharePrefixes
// applies to the engine's own fabric only.
func (e *Engine) load(f fabric, patterns []string) (*compile.Result, *arch.Placement, error) {
	opts := e.cfg.Compile
	if f.policy != compile.PolicyDefault {
		opts.ModePolicy = f.policy
	}
	res, err := compileStrict(patterns, opts)
	if err != nil {
		return nil, nil, err
	}
	if f.bvap {
		p, err := sim.MapBVAP(res)
		return res, p, err
	}
	if f == (fabric{}) && e.cfg.SharePrefixes {
		if res, err = compile.ShareNFAPrefixes(res, opts); err != nil {
			return nil, nil, err
		}
	}
	p, err := mapper.Map(res, mapper.Options{Depth: e.cfg.Depth, BinSize: e.cfg.BinSize})
	return res, p, err
}

// compileStrict compiles the patterns and fails on the first that does
// not compile.
func compileStrict(patterns []string, opts compile.Options) (*compile.Result, error) {
	res := compile.Compile(patterns, opts)
	if len(res.Errors) != 0 {
		return nil, fmt.Errorf("core: %d patterns failed, first: %w", len(res.Errors), res.Errors[0])
	}
	return res, nil
}

// Match runs the software reference matcher (no hardware model).
func (e *Engine) Match(patterns []string, input []byte) ([]refmatch.Match, error) {
	m, err := refmatch.Compile(context.Background(), patterns, refmatch.Options{})
	if err != nil {
		return nil, err
	}
	return m.Scan(input), nil
}

// --- Design space exploration (§5.3) ----------------------------------

// DSEPoint is one sweep sample.
type DSEPoint struct {
	Param          int
	EnergyUJ       float64
	AreaMM2        float64
	ThroughputGchS float64
}

// ChooseDepth sweeps arch.BVDepths over the NBVA-compiled subset of the
// patterns and returns the chosen depth plus the sweep points. The policy
// follows §5.3: among depths whose throughput stays within 45% of the
// best observed (the paper accepts ClamAV at 1.0 of 2.08 Gch/s), pick the one minimizing energy × area.
func (e *Engine) ChooseDepth(patterns []string, input []byte) (int, []DSEPoint, error) {
	points, err := e.sweep(patterns, input, compile.ModeNBVA, arch.BVDepths, func(d int) mapper.Options {
		return mapper.Options{Depth: d, BinSize: e.cfg.BinSize}
	})
	if err != nil {
		return 0, nil, err
	}
	if len(points) == 0 {
		return 8, nil, nil
	}
	return chooseByPolicy(points, 0.45), points, nil
}

// ChooseBinSize sweeps arch.BinSizes over the LNFA-compiled subset and
// returns the chosen bin size plus the sweep points. Policy (§5.3): the
// highest energy efficiency without a significant (>40%) area increase
// over the smallest area observed.
func (e *Engine) ChooseBinSize(patterns []string, input []byte) (int, []DSEPoint, error) {
	points, err := e.sweep(patterns, input, compile.ModeLNFA, arch.BinSizes, func(bs int) mapper.Options {
		return mapper.Options{Depth: e.cfg.Depth, BinSize: bs}
	})
	if err != nil {
		return 0, nil, err
	}
	if len(points) == 0 {
		return 8, nil, nil
	}
	minArea := points[0].AreaMM2
	for _, pt := range points[1:] {
		minArea = min(minArea, pt.AreaMM2)
	}
	best := points[0]
	for _, pt := range points[1:] {
		if pt.AreaMM2 <= minArea*1.4 && pt.EnergyUJ < best.EnergyUJ {
			best = pt
		} else if best.AreaMM2 > minArea*1.4 && pt.AreaMM2 <= minArea*1.4 {
			best = pt
		}
	}
	return best.Param, points, nil
}

// sweep is the walk both choosers share: it compiles the patterns the
// decision graph routes to mode once, then maps and simulates that subset
// at each parameter value. No pattern in mode means no points.
func (e *Engine) sweep(patterns []string, input []byte, mode compile.Mode, params []int, opts func(int) mapper.Options) ([]DSEPoint, error) {
	res, err := compileStrict(patterns, e.cfg.Compile)
	if err != nil {
		return nil, err
	}
	subset := res.Sources(mode)
	if len(subset) == 0 {
		return nil, nil
	}
	sub, err := compileStrict(subset, e.cfg.Compile)
	if err != nil {
		return nil, err
	}
	points := make([]DSEPoint, 0, len(params))
	for _, v := range params {
		p, err := mapper.Map(sub, opts(v))
		if err != nil {
			return nil, err
		}
		rep, err := sim.SimulateRAP(sub, p, input)
		if err != nil {
			return nil, err
		}
		points = append(points, DSEPoint{
			Param: v, EnergyUJ: rep.EnergyUJ(), AreaMM2: rep.Area.TotalMM2(),
			ThroughputGchS: rep.ThroughputGchS(),
		})
	}
	return points, nil
}

// chooseByPolicy picks the param minimizing energy×area among points with
// throughput ≥ tputFloor × best throughput.
func chooseByPolicy(points []DSEPoint, tputFloor float64) int {
	bestTput := 0.0
	for _, p := range points {
		if p.ThroughputGchS > bestTput {
			bestTput = p.ThroughputGchS
		}
	}
	best := points[0]
	bestScore := best.EnergyUJ * best.AreaMM2
	for _, p := range points[1:] {
		if p.ThroughputGchS < tputFloor*bestTput {
			continue
		}
		score := p.EnergyUJ * p.AreaMM2
		if score < bestScore || (best.ThroughputGchS < tputFloor*bestTput) {
			best = p
			bestScore = score
		}
	}
	return best.Param
}
