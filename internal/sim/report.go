// Package sim contains the cycle-level simulators for RAP and the
// state-of-the-art baselines it is compared against (§5): CAMA, CA (Cache
// Automaton) and BVAP. Following the paper's methodology (§5.2), the
// simulators execute the actual dataflow — functional automata runners
// drive per-cycle activity — and charge energy from the Table 1 circuit
// models in internal/hwmodel. Matching results are cross-checked against
// internal/refmatch in the integration tests, mirroring the paper's
// Hyperscan consistency checks.
package sim

import (
	"fmt"
	"strings"
)

// EnergyBreakdown accumulates energy per component class, in picojoules.
type EnergyBreakdown struct {
	CAM          float64 // state-matching accesses (CAM or SRAM match array)
	LocalSwitch  float64 // local FCB traversals (state transition / BV routing)
	GlobalSwitch float64 // array-level FCB
	Controller   float64 // local + global controllers
	BVM          float64 // BVAP's dedicated bit-vector modules
	Wire         float64 // global wires / LNFA ring
	Config       float64 // live-reconfiguration writes (delta reload path)
	Leakage      float64
}

// TotalPJ returns the summed energy in picojoules.
func (e *EnergyBreakdown) TotalPJ() float64 {
	return e.CAM + e.LocalSwitch + e.GlobalSwitch + e.Controller + e.BVM + e.Wire + e.Config + e.Leakage
}

// Add accumulates another breakdown.
func (e *EnergyBreakdown) Add(o EnergyBreakdown) {
	e.CAM += o.CAM
	e.LocalSwitch += o.LocalSwitch
	e.GlobalSwitch += o.GlobalSwitch
	e.Controller += o.Controller
	e.BVM += o.BVM
	e.Wire += o.Wire
	e.Config += o.Config
	e.Leakage += o.Leakage
}

// AreaBreakdown accumulates area per structure, in square millimetres.
type AreaBreakdown struct {
	Tiles        float64 // CAM + local switch (+ local controller for RAP)
	GlobalSwitch float64
	Controller   float64
	BVM          float64
	IO           float64
}

// TotalMM2 returns the summed area.
func (a *AreaBreakdown) TotalMM2() float64 {
	return a.Tiles + a.GlobalSwitch + a.Controller + a.BVM + a.IO
}

// Report is the outcome of simulating one placement over one input.
type Report struct {
	Arch  string
	Chars int64
	// Cycles is the maximum cycle count over all arrays (the slowest
	// array bounds throughput, §3.3).
	Cycles int64
	// StallCycles is the total number of bit-vector-processing stall
	// cycles across arrays.
	StallCycles int64
	Matches     int64
	// IOInterrupts counts Bank Output Buffer drains to the host (§3.3:
	// an interrupt is raised whenever the 64-entry buffer fills).
	IOInterrupts int64
	ClockGHz     float64

	// ReconfigEvents counts mid-stream live reconfigurations and
	// ReconfigStallCycles the cycles the match pipeline stalled for them
	// (filled by SimulateRAPReconfig).
	ReconfigEvents      int64
	ReconfigStallCycles int64

	// PerRegex attributes match reports to compiled regex indices
	// (filled by SimulateRAP; nil for the baseline simulators).
	PerRegex map[int]int64

	// GatedTileCycles counts LNFA tile-cycles spent power-gated, and
	// LNFATileCycles the total tile-cycles of LNFA-mode tiles — their
	// ratio is the §3.2 binning/power-gating effectiveness.
	GatedTileCycles int64
	LNFATileCycles  int64

	Energy EnergyBreakdown
	Area   AreaBreakdown
}

// ThroughputGchS returns characters per second in Gch/s.
func (r *Report) ThroughputGchS() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Chars) / float64(r.Cycles) * r.ClockGHz
}

// TimeSeconds returns the simulated wall-clock time.
func (r *Report) TimeSeconds() float64 {
	if r.ClockGHz == 0 {
		return 0
	}
	return float64(r.Cycles) / (r.ClockGHz * 1e9)
}

// EnergyUJ returns total energy in microjoules.
func (r *Report) EnergyUJ() float64 { return r.Energy.TotalPJ() * 1e-6 }

// PowerW returns average power.
func (r *Report) PowerW() float64 {
	t := r.TimeSeconds()
	if t == 0 {
		return 0
	}
	return r.Energy.TotalPJ() * 1e-12 / t
}

// EnergyEfficiency returns throughput per watt (Gch/s/W), the paper's
// energy-efficiency metric.
func (r *Report) EnergyEfficiency() float64 {
	p := r.PowerW()
	if p == 0 {
		return 0
	}
	return r.ThroughputGchS() / p
}

// ComputeDensity returns throughput per area (Gch/s/mm²), the paper's
// compute-density metric.
func (r *Report) ComputeDensity() float64 {
	a := r.Area.TotalMM2()
	if a == 0 {
		return 0
	}
	return r.ThroughputGchS() / a
}

// String renders a one-line summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.2f Gch/s, %.2f µJ, %.3f mm², %.2f W, eff %.1f Gch/s/W, density %.2f Gch/s/mm², %d matches",
		r.Arch, r.ThroughputGchS(), r.EnergyUJ(), r.Area.TotalMM2(), r.PowerW(),
		r.EnergyEfficiency(), r.ComputeDensity(), r.Matches)
	return b.String()
}
