package nbva_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/workload"
)

// BenchmarkNBVAKernel scans one 16 KiB Snort input with the NBVA machines
// of Snort @ scale 0.2 — the ledger's dataset_bulk ruleset — once through
// Runner.Step, the simulator's per-cycle model, and once through the
// chunk kernel. Snort1.0 runs the kernel over the 71 machines of Snort @
// scale 1, hot_swap's ruleset; DenseStart runs ab{20,48}c over "axax…",
// where an idle machine meets its start byte every second byte, the worst
// case for the memchr skip.
func BenchmarkNBVAKernel(b *testing.B) {
	machines, input := snortMachines(b, 0.2)
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
	b.Run("Kernel", func(b *testing.B) { fires += benchKernel(b, machines, input) })
	b.Run("Snort1.0", func(b *testing.B) {
		machines, input := snortMachines(b, 1.0)
		fires += benchKernel(b, machines, input)
	})
	b.Run("DenseStart", func(b *testing.B) {
		m := compileNBVA(b, []string{"ab{20,48}c"})
		input := []byte(strings.Repeat("ax", 8<<10))
		copy(input[1000:], "a"+strings.Repeat("b", 30)+"c")
		fires += benchKernel(b, m, input)
	})
	if fires == 0 {
		b.Fatal("the input fires no machine")
	}
}

// snortMachines returns the NBVA machines of Snort at scale and a 16 KiB
// Snort input.
func snortMachines(b *testing.B, scale float64) ([]*nbva.Machine, []byte) {
	d := workload.MustGenerate("Snort", scale, 1)
	return compileNBVA(b, d.Patterns), d.Input(16<<10, 1)
}

// compileNBVA returns the NBVA machines of patterns under the default
// compile options.
func compileNBVA(b *testing.B, patterns []string) []*nbva.Machine {
	res, err := compile.CompileContext(context.Background(), patterns, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var machines []*nbva.Machine
	for _, c := range res.ByMode(compile.ModeNBVA) {
		machines = append(machines, c.NBVA)
	}
	if len(machines) == 0 {
		b.Fatal("no NBVA machine")
	}
	return machines
}

// benchKernel scans input with the chunk kernel of every machine and
// returns how many times they fired.
func benchKernel(b *testing.B, machines []*nbva.Machine, input []byte) int {
	states := make([]nbva.KernelState, len(machines))
	for i, m := range machines {
		k := nbva.NewKernel(m)
		states[i] = k.NewState(make([]uint64, k.Words()))
	}
	fires := 0
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
	return fires
}
