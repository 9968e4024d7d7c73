package core

import (
	"testing"

	"power5prio/internal/isa"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
)

// benchKernel builds a fresh kernel per machine: kernels with pattern
// closures carry state and must never be shared between chips.
func benchKernel(b *testing.B, name string) *isa.Kernel {
	b.Helper()
	k, err := microbench.BuildWith(name, microbench.Params{Iters: 16})
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// simulate advances the chip by exactly b.N simulated cycles, through
// the event wheel when advance is set and by pure stepping otherwise,
// and reports simulated throughput.
func simulate(b *testing.B, name string, advance bool) {
	ch := NewChip(DefaultConfig())
	ch.PlacePair(benchKernel(b, name), benchKernel(b, name),
		prio.Medium, prio.Medium, prio.Supervisor)
	c := ch.ExperimentCore()
	b.ResetTimer()
	target := c.Cycle() + uint64(b.N)
	for c.Cycle() < target {
		if advance && ch.AdvanceToNextEvent(target) > 0 {
			continue
		}
		ch.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim_cycles/s")
}

// BenchmarkAdvanceBusy measures the busy-path cost of the event wheel:
// a CPU-bound pair decodes nearly every cycle, so almost every
// AdvanceToNextEvent attempt bails on the progress flag and falls
// through to Step. No test gates its distance to BenchmarkStepBusy.
// The repository benchmark's traced regen-golden run reports the same
// cost on this pair at golden fidelity as core.ff_tax_busy (time with
// the wheel over time stepping). Three traced runs on a shared 2-vCPU
// VM read 1.03, 1.24 and 0.82 before the wake-up issue stage and 1.00,
// 1.07 and 1.11 after it, so the tax is within that host's noise.
func BenchmarkAdvanceBusy(b *testing.B) { simulate(b, microbench.CPUInt, true) }

// BenchmarkStepBusy is the pure-stepping baseline for BenchmarkAdvanceBusy.
func BenchmarkStepBusy(b *testing.B) { simulate(b, microbench.CPUInt, false) }

// BenchmarkAdvanceMemPair exercises the profitable path: a memory-bound
// pair spends most cycles waiting on the LMQ and the miss throttle, so
// nearly every window is skipped in closed form.
func BenchmarkAdvanceMemPair(b *testing.B) { simulate(b, microbench.LdIntMem, true) }

// BenchmarkStepMemPair is the pure-stepping baseline for BenchmarkAdvanceMemPair.
func BenchmarkStepMemPair(b *testing.B) { simulate(b, microbench.LdIntMem, false) }
