package pipeline_test

import (
	"fmt"
	"reflect"
	"testing"

	"power5prio/internal/balance"
	"power5prio/internal/core"
	"power5prio/internal/microbench"
	"power5prio/internal/pipeline"
	"power5prio/internal/prio"
)

// fuzzCycles is how long each FuzzCoreStep input is simulated.
const fuzzCycles = 5_000

// fuzzInput maps raw fuzz bytes onto a kernel pair, a priority pair and
// a configuration inside pipeline.Config.Validate's ranges. The GCT,
// group and fetch-buffer bounds keep the in-flight window inside the
// pipeline's sequence rings.
func fuzzInput(a, b, pa, pb, mode, gctHigh, gctLow, missHigh, throttle, gct, lmq,
	penalty, group, width, buf, queue, lat uint8) fpInput {
	names := microbench.Names()
	cfg := core.DefaultConfig()
	p := &cfg.Pipe
	p.Balance = balance.Config{
		Mode:         balance.Mode(mode % 3),
		GCTHigh:      1 + int(gctHigh%24),
		MissHigh:     1 + int(missHigh%10),
		ThrottleRate: 2 + int(throttle%15),
	}
	p.Balance.GCTLow = 1 + int(gctLow)%p.Balance.GCTHigh
	p.GCTEntries = 1 + int(gct%32)
	p.LMQPerThread = 1 + int(lmq%12)
	p.MispredictPenalty = uint64(penalty % 16)
	p.GroupSize = 1 + int(group%pipeline.GroupMax)
	p.FetchWidth = 1 + int(width%12)
	p.FetchBufCap = 1 + int(buf%48)
	for u := range p.QueueCap {
		p.QueueCap[u] = 1 + int(queue%40)
	}
	// Zero-latency adds let a consumer issue in its producer's cycle.
	p.LatIntAdd = uint64(lat % 4)
	in := fpInput{
		cfg: cfg,
		a:   names[int(a)%len(names)], b: names[int(b)%len(names)],
		pa: prio.Level(pa % 8), pb: prio.Level(pb % 8),
	}
	in.name = fmt.Sprintf("%s+%s/%d-%d %+v", in.a, in.b, in.pa, in.pb, *p)
	return in
}

// FuzzCoreStep drives random kernel pairs, priorities and configurations
// through the core. Properties: no panic; pipeline.InvariantChecker holds
// after every Step; a second run is identical; and advancing through the
// event wheel matches stepping at every advance boundary.
func FuzzCoreStep(f *testing.F) {
	f.Add(uint8(4), uint8(12), uint8(4), uint8(4), uint8(2), uint8(13), uint8(11), uint8(5), uint8(6),
		uint8(19), uint8(7), uint8(7), uint8(4), uint8(7), uint8(23), uint8(35), uint8(2))
	f.Fuzz(func(t *testing.T, a, b, pa, pb, mode, gctHigh, gctLow, missHigh, throttle, gct, lmq,
		penalty, group, width, buf, queue, lat uint8) {
		in := fuzzInput(a, b, pa, pb, mode, gctHigh, gctLow, missHigh, throttle, gct, lmq,
			penalty, group, width, buf, queue, lat)
		if err := in.cfg.Validate(); err != nil {
			t.Fatalf("%s: generated an invalid configuration: %v", in.name, err)
		}

		ref := in.build(t)
		inv := pipeline.NewInvariantChecker(ref.ExperimentCore())
		again := in.build(t)
		ff := in.build(t)
		cr, ca, cf := ref.ExperimentCore(), again.ExperimentCore(), ff.ExperimentCore()
		for cr.Cycle() < fuzzCycles {
			n := ff.AdvanceToNextEvent(fuzzCycles)
			if n == 0 {
				n = 1
				ff.Step()
			}
			for i := uint64(0); i < n; i++ {
				ref.Step()
				again.Step()
				if err := inv.Check(); err != nil {
					t.Fatalf("%s: %v", in.name, err)
				}
			}
			if cr.Cycle() != cf.Cycle() {
				t.Fatalf("%s: event wheel at cycle %d, stepping at %d", in.name, cf.Cycle(), cr.Cycle())
			}
			for th := 0; th < 2; th++ {
				if !reflect.DeepEqual(cr.Stats(th), cf.Stats(th)) {
					t.Fatalf("%s: cycle %d thread %d: event wheel diverged from stepping\n step %+v\n wheel %+v",
						in.name, cr.Cycle(), th, cr.Stats(th), cf.Stats(th))
				}
			}
			if cr.CoreStats() != cf.CoreStats() {
				t.Fatalf("%s: cycle %d: event wheel core stats diverged\n step %+v\n wheel %+v",
					in.name, cr.Cycle(), cr.CoreStats(), cf.CoreStats())
			}
		}
		for th := 0; th < 2; th++ {
			if !reflect.DeepEqual(cr.Stats(th), ca.Stats(th)) {
				t.Fatalf("%s: thread %d: two runs diverged\n %+v\n %+v", in.name, th, cr.Stats(th), ca.Stats(th))
			}
		}
		if cr.CoreStats() != ca.CoreStats() {
			t.Fatalf("%s: two runs diverged\n %+v\n %+v", in.name, cr.CoreStats(), ca.CoreStats())
		}
	})
}
