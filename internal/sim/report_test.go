package sim

import (
	"strings"
	"testing"
)

func TestEnergyBreakdownAddTotal(t *testing.T) {
	a := EnergyBreakdown{CAM: 1, LocalSwitch: 2, GlobalSwitch: 3, Controller: 4, BVM: 5, Wire: 6, Leakage: 7}
	b := a
	a.Add(b)
	if a.TotalPJ() != 2*28 {
		t.Errorf("TotalPJ = %v", a.TotalPJ())
	}
}

func TestAreaBreakdownAddTotal(t *testing.T) {
	a := AreaBreakdown{Tiles: 1, GlobalSwitch: 2, Controller: 3, BVM: 4, IO: 5}
	if a.TotalMM2() != 15 {
		t.Errorf("TotalMM2 = %v", a.TotalMM2())
	}
}

func TestReportZeroSafety(t *testing.T) {
	var r Report
	if r.ThroughputGchS() != 0 || r.PowerW() != 0 || r.EnergyEfficiency() != 0 || r.ComputeDensity() != 0 {
		t.Error("zero report produced non-zero derived metrics")
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	r := Report{
		Arch: "RAP", Chars: 1000, Cycles: 1000, ClockGHz: 2.0,
		Energy: EnergyBreakdown{CAM: 1e6}, // 1 µJ
		Area:   AreaBreakdown{Tiles: 0.5},
	}
	if got := r.ThroughputGchS(); got != 2.0 {
		t.Errorf("throughput = %v", got)
	}
	// time = 1000 / 2e9 = 0.5 µs; power = 1µJ / 0.5µs = 2 W.
	if got := r.PowerW(); got < 1.999 || got > 2.001 {
		t.Errorf("power = %v", got)
	}
	if got := r.EnergyEfficiency(); got < 0.999 || got > 1.001 {
		t.Errorf("efficiency = %v", got)
	}
	if got := r.ComputeDensity(); got != 4.0 {
		t.Errorf("density = %v", got)
	}
	if s := r.String(); !strings.Contains(s, "RAP") || !strings.Contains(s, "2.00 Gch/s") {
		t.Errorf("String = %q", s)
	}
}
