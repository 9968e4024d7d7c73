package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"power5prio/internal/engine"
	"power5prio/internal/experiments"
	"power5prio/internal/workload"
)

// regen-golden: one fresh engine per round, no disk store, estimator off,
// regenerates every golden document of the quick experiment suite and
// compares each with its committed file byte for byte. This is what a
// `p5exp -exp all -quick` user pays; simulation does nearly all of it.

// regenStep regenerates one golden document.
type regenStep struct {
	doc   string // golden file name
	layer string // experiments.<layer>_s accumulates its time
	run   func(ctx context.Context, h experiments.Harness) (any, error)
}

var regenSteps = []regenStep{
	{"table3.json", "table3", func(ctx context.Context, h experiments.Harness) (any, error) {
		t3, err := experiments.Table3(ctx, h)
		return table3Doc(t3), err
	}},
	{"table4.json", "table4", func(ctx context.Context, h experiments.Harness) (any, error) {
		t4, err := experiments.Table4(ctx, h)
		return table4Doc(t4), err
	}},
	{"fig5a.json", "fig5", func(ctx context.Context, h experiments.Harness) (any, error) {
		r, err := experiments.Fig5a(ctx, h)
		return fig5Doc(r), err
	}},
	{"fig5b.json", "fig5", func(ctx context.Context, h experiments.Harness) (any, error) {
		r, err := experiments.Fig5b(ctx, h)
		return fig5Doc(r), err
	}},
	{"fig6.json", "fig6", func(ctx context.Context, h experiments.Harness) (any, error) {
		f6, err := experiments.Fig6(ctx, h)
		return fig6Doc(f6), err
	}},
	{"calib.json", "calib", func(ctx context.Context, h experiments.Harness) (any, error) {
		return experiments.Calib(ctx, h)
	}},
}

// regenRound is one full regeneration. Its latencies are per answered
// job, since its experiment started.
type regenRound struct {
	timing
	layerTime map[string]time.Duration
	answered  int    // engine jobs answered
	simulated int    // jobs answered by simulation
	cycles    uint64 // their simulated cycles
	stats     engine.Stats
	paperErr  float64
	estErr    float64
	jobs      jobStats // backend spans (traced rounds)
}

func runRegen(ctx context.Context, o opts, res *result) error {
	rf, err := timedSetups(res, setupRepeats, setupTime, func() (*refs, error) { return loadRefs(o.root) })
	if err != nil {
		return err
	}

	// The inputs are fixed by the golden suite, so the seed changes
	// nothing here; the documents regenerate in the suite's order.
	res.note("regen-golden: %d golden documents on %d workers", len(regenSteps), o.workers)

	plain, traced, err := runRounds(ctx, o, res, func(tr *tracer) (regenRound, error) {
		return regenOnce(ctx, o, rf, tr, res)
	})
	if err != nil {
		return err
	}
	all := append(append([]regenRound(nil), plain...), traced...)
	checkRegenCounts(all, res)
	res.Attempted = len(all) * len(regenSteps)

	t := summarize(plain)
	first := all[0]
	if !o.trace {
		res.set("wall_s", t.wall)
		res.set("sim_cycles_per_s", float64(first.cycles)/t.wall)
		res.set("queries_per_s", float64(first.answered)/t.wall)
		res.set("latency_p50_ms", t.p50)
		res.set("latency_p99_ms", t.p99)
		res.set("max_rss_mb", maxRSSMB())
		res.set("est_max_abs_err", first.estErr)
		res.set("paper_mean_rel_err", first.paperErr)
		res.note("regen-golden: %d rounds [%s s]; %d jobs answered, %d simulated (%d cycles) per round; latency percentiles are medians over rounds (%d samples)",
			len(plain), secondsList(t.walls), first.answered, first.simulated, first.cycles, t.samples)
		return nil
	}

	layers := map[string][]float64{}
	for _, r := range traced {
		for k, d := range r.layerTime {
			layers[k] = append(layers[k], d.Seconds())
		}
	}
	for _, st := range regenSteps {
		res.set("experiments."+st.layer+"_s", median(layers[st.layer]))
	}
	setEngineStats(res, traced[0].stats)
	traced[0].jobs.set(res)
	res.set("trace.overhead_s", summarize(traced).wall-t.wall)
	res.set("latency.samples", float64(t.samples))

	ns, err := stepNsPerCycle(2_000_000)
	if err != nil {
		return err
	}
	res.set("pipeline.step_ns_per_cycle", ns)
	gain, err := ffRatio(memBoundChip)
	if err != nil {
		res.fail("core fast-forward probe (memory-bound cell): %v", err)
	}
	res.set("core.ff_gain_membound", gain)
	off, err := ffRatio(busyPairChip)
	if err != nil {
		res.fail("core fast-forward probe (busy pair): %v", err)
	}
	if off > 0 {
		res.set("core.ff_tax_busy", 1/off)
	}
	res.note("regen-golden traced: %d untraced + %d traced rounds, %d backend job spans", len(plain), len(traced), traced[0].jobs.jobs)
	return nil
}

// regenOnce runs one regeneration on a fresh engine and checks every
// document against its golden file.
func regenOnce(ctx context.Context, o opts, rf *refs, tr *tracer, res *result) (regenRound, error) {
	h := goldenHarness()
	reg := workload.NewRegistry()
	if tr != nil {
		h.Engine = engine.NewWith(o.workers, reg, engine.WithBackend(newSpanBackend(engine.NewLocalBackend(o.workers, reg), tr)))
	} else {
		h.Engine = engine.NewWith(o.workers, reg)
	}
	r := regenRound{layerTime: make(map[string]time.Duration)}
	var mu sync.Mutex
	var expStart time.Time
	h.Progress = func(er engine.Result) {
		mu.Lock()
		defer mu.Unlock()
		r.lat = append(r.lat, time.Since(expStart))
		r.answered++
		if !er.CacheHit {
			r.simulated++
			r.cycles += er.Pair.Cycles
		}
	}
	pos := 0
	if tr != nil {
		pos = tr.mark()
	}

	start := time.Now()
	for _, st := range regenSteps {
		t0 := time.Now()
		mu.Lock()
		expStart = t0
		mu.Unlock()
		doc, err := st.run(ctx, h)
		d := time.Since(t0)
		if err != nil {
			return r, fmt.Errorf("regenerate %s: %w", st.doc, err)
		}
		r.layerTime[st.layer] += d
		if err := rf.checkDoc(st.doc, doc); err != nil {
			res.fail("%v", err)
			res.Failed++
		}
		switch v := doc.(type) {
		case goldenTable3:
			if r.paperErr, err = paperRelErr(v); err != nil {
				res.fail("paper comparison: %v", err)
			}
		case *experiments.CalibResult:
			r.estErr = v.MaxAbsResidual
			if !v.WithinBounds() {
				res.fail("calib: %d residuals escape their error bars", len(v.Exceeded()))
			}
		}
	}
	r.wall = time.Since(start)
	r.stats = h.Engine.Stats()
	if tr != nil {
		r.jobs = summarizeJobs(tr.since(spanJob, pos))
	}
	return r, nil
}

// checkRegenCounts: the simulator is deterministic, so every round must
// simulate the same jobs for the same cycles.
func checkRegenCounts(rounds []regenRound, res *result) {
	a := rounds[0]
	for i, b := range rounds[1:] {
		if b.simulated != a.simulated || b.cycles != a.cycles || b.stats.Simulated != a.stats.Simulated ||
			b.stats.EstimatedHits != a.stats.EstimatedHits || b.answered != a.answered {
			res.fail("round %d counts (simulated %d, cycles %d, answered %d) differ from round 0 (%d, %d, %d)",
				i+1, b.simulated, b.cycles, b.answered, a.simulated, a.cycles, a.answered)
		}
		if b.jobs.jobs != 0 && (b.jobs.jobs != b.simulated || b.jobs.cycles != b.cycles) {
			res.fail("round %d backend spans (%d jobs, %d cycles) disagree with answers (%d, %d)",
				i+1, b.jobs.jobs, b.jobs.cycles, b.simulated, b.cycles)
		}
	}
	if a.stats.Simulated != a.simulated {
		res.fail("engine counted %d simulations, answers show %d", a.stats.Simulated, a.simulated)
	}
}

// setEngineStats reports one round's engine counters (the engine is
// fresh per round, so totals are the round's deltas).
func setEngineStats(res *result, s engine.Stats) {
	res.set("engine.submitted", float64(s.Submitted))
	res.set("engine.simulated", float64(s.Simulated))
	res.set("engine.mem_hits", float64(s.Hits-s.DiskHits))
	res.set("engine.disk_hits", float64(s.DiskHits))
	res.set("engine.coalesced", float64(s.Coalesced))
	res.set("engine.estimated", float64(s.EstimatedHits))
	res.set("engine.escalated", float64(s.EstimatedEscalated))
	ratio := 0.0
	if s.Submitted > 0 {
		ratio = float64(s.Hits+s.EstimatedHits) / float64(s.Submitted)
	}
	res.set("engine.hit_ratio", ratio)
}
