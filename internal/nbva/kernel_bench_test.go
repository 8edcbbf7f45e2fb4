package nbva_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/workload"
)

// BenchmarkNBVAKernel scans one 16 KiB Snort input with the NBVA machines
// of Snort @ scale 0.2 — the ledger's dataset_bulk ruleset — once through
// Runner.Step, the simulator's per-cycle model, and once through the
// chunk kernel, every machine reading one start-byte search per chunk,
// in chunks of 2 KiB (a hot_swap session feed) and 16 KiB (a
// dataset_bulk scan). Snort1.0 runs the kernel over the 71 machines of
// Snort @ scale 1, hot_swap's ruleset, on 32 start bytes; DenseStart runs
// ab{20,48}c over "axax…", where an idle machine meets its start byte
// every second byte, each one followed by a byte the pair gate rejects.
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
	for _, c := range []struct {
		name  string
		scale float64
	}{{"Kernel", 0.2}, {"Snort1.0", 1.0}} {
		b.Run(c.name, func(b *testing.B) {
			machines, input := snortMachines(b, c.scale)
			for _, chunk := range []int{2 << 10, 16 << 10} {
				b.Run(fmt.Sprintf("%dKiB", chunk>>10), func(b *testing.B) { fires += benchKernel(b, machines, input, chunk) })
			}
		})
	}
	b.Run("DenseStart", func(b *testing.B) {
		m := compileNBVA(b, []string{"ab{20,48}c"})
		input := []byte(strings.Repeat("ax", 8<<10))
		copy(input[1000:], "a"+strings.Repeat("b", 30)+"c")
		fires += benchKernel(b, m, input, len(input))
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

// benchKernel scans input in chunks of chunk bytes with the chunk kernel
// of every machine, each chunk searched once for all their start bytes,
// and returns how many times they fired. A first scan before the timer
// grows the search's slab, so a scan allocates nothing.
func benchKernel(b *testing.B, machines []*nbva.Machine, input []byte, chunk int) int {
	kernels := make([]*nbva.Kernel, len(machines))
	states := make([]nbva.KernelState, len(machines))
	for i, m := range machines {
		kernels[i] = nbva.NewKernel(m)
		states[i] = kernels[i].NewState(make([]uint64, kernels[i].Words()))
	}
	hits := nbva.NewStarts(kernels).NewHits()
	fires := 0
	emit := func(int) { fires++ }
	scan := func() {
		for j := range states {
			states[j].Reset()
		}
		for at := 0; at < len(input); at += chunk {
			data := input[at:min(at+chunk, len(input))]
			hits.Find(data)
			for j := range states {
				states[j].ScanChunk(&hits, j, at, emit)
			}
		}
	}
	scan()
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	return fires
}
