// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic workloads: Fig 1 (model proportions),
// Fig 10 (design space exploration), Table 2 (NBVA mode vs NFA mode and
// ASICs), Table 3 (LNFA mode vs NFA mode and ASICs), Fig 11 (per-mode
// breakdown), Fig 12 (overall ASIC comparison), Fig 13 (CPU/GPU
// comparison) and Table 4 (FPGA comparison on ANMLZoo).
//
// Absolute energy/area values differ from the paper (smaller synthetic
// pattern sets), but the comparative shapes — who wins and by roughly what
// factor — are the reproduction targets recorded in EXPERIMENTS.md.
package experiments

import (
	"sync"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config controls the scale of every experiment.
type Config struct {
	// Scale multiplies the per-dataset pattern counts (1.0 = full
	// synthetic size). Default 1.0.
	Scale float64
	// Seed makes workload generation deterministic. Default 1.
	Seed int64
	// InputLen is the number of input characters (the paper uses
	// 100,000). Default 100000.
	InputLen int
	// OutDir, when set, receives CSV/JSON outputs per experiment.
	OutDir string
	// Parallel runs the per-dataset work of an experiment concurrently
	// (results are still emitted in dataset order).
	Parallel bool
}

// parMap applies fn to every name — concurrently when parallel — and
// returns the results in input order. The first error wins.
func parMap[T any](parallel bool, names []string, fn func(string) (T, error)) ([]T, error) {
	out := make([]T, len(names))
	if !parallel {
		for i, name := range names {
			v, err := fn(name)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			out[i], errs[i] = fn(name)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *Config) setDefaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.InputLen == 0 {
		c.InputLen = 100000
	}
}

// dataset loads (generates) one benchmark at the configured scale.
func (c *Config) dataset(name string) (*workload.Dataset, []byte, error) {
	d, err := workload.Generate(name, c.Scale, c.Seed)
	if err != nil {
		return nil, nil, err
	}
	return d, d.Input(c.InputLen, c.Seed+100), nil
}

// subsetByMode returns the patterns the decision graph routes to mode m.
func subsetByMode(patterns []string, m compile.Mode) ([]string, error) {
	prog, err := core.NewDefault().Compile(patterns)
	if err != nil {
		return nil, err
	}
	return prog.Result.Sources(m), nil
}

// saveTable writes the table to OutDir when configured.
func (c *Config) saveTable(t *metrics.Table, file string) error {
	if c.OutDir == "" {
		return nil
	}
	return t.SaveCSV(c.OutDir + "/" + file)
}

// nbvaModeAreaMM2 returns the area of the NBVA-mode arrays of a placement
// (used by the Fig 12 throughput-replication adjustment).
func nbvaModeAreaMM2(p *arch.Placement) float64 {
	tiles := 0
	arrays := 0
	for i := range p.Arrays {
		if p.Arrays[i].Mode != arch.ModeNBVA {
			continue
		}
		arrays++
		tiles += p.Arrays[i].TilesUsed()
	}
	if arrays == 0 {
		return 0
	}
	sub := &arch.Placement{Arrays: make([]arch.ArrayPlan, 0, arrays)}
	for i := range p.Arrays {
		if p.Arrays[i].Mode == arch.ModeNBVA {
			sub.Arrays = append(sub.Arrays, p.Arrays[i])
		}
	}
	a := sim.RAPArea(sub)
	return a.TotalMM2()
}
