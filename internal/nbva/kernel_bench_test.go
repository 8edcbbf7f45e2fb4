package nbva_test

import (
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/workload"
)

// BenchmarkNBVAKernel scans one 16 KiB Snort input with the NBVA machines
// of Snort @ scale 0.2 — the ledger's dataset_bulk ruleset — once through
// Runner.Step, the simulator's per-cycle model, and once through the
// chunk kernel.
func BenchmarkNBVAKernel(b *testing.B) {
	d := workload.MustGenerate("Snort", 0.2, 1)
	res, err := compile.CompileContext(context.Background(), d.Patterns, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var machines []*nbva.Machine
	for _, c := range res.ByMode(compile.ModeNBVA) {
		machines = append(machines, c.NBVA)
	}
	if len(machines) == 0 {
		b.Fatal("no NBVA machine in Snort@0.2")
	}
	input := d.Input(16<<10, 1)
	fires := 0

	b.Run("Step", func(b *testing.B) {
		runners := make([]*nbva.Runner, len(machines))
		for i, m := range machines {
			runners[i] = nbva.NewRunner(m)
		}
		b.SetBytes(int64(len(input)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range runners {
				r.Reset()
				for _, c := range input {
					if r.Step(c) {
						fires += r.FinalsFired()
					}
				}
			}
		}
	})
	b.Run("Kernel", func(b *testing.B) {
		states := make([]nbva.KernelState, len(machines))
		for i, m := range machines {
			k := nbva.NewKernel(m)
			states[i] = k.NewState(make([]uint64, k.Words()))
		}
		emit := func(int) { fires++ }
		b.SetBytes(int64(len(input)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range states {
				s := &states[j]
				s.Reset()
				s.ScanChunk(input, 0, emit)
			}
		}
	})
	if fires == 0 {
		b.Fatal("the input fires no machine")
	}
}
