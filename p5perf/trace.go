package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
	"power5prio/internal/service"
	"power5prio/internal/workload"
)

// Tracing. Spans are recorded only at the repository's public seams —
// an engine.Backend decorator installed with engine.WithBackend, an
// http.RoundTripper installed with service.WithHTTPClient — and around
// the benchmark's own direct calls into a layer. Nothing inside the
// program changes. Spans stay in memory and are written out once, when
// the run ends.

// span is one timed interval at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Parent int64  `json:"parent,omitempty"` // id of the causing span (a backend batch)
	ID     int64  `json:"id"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Cycles uint64 `json:"cycles,omitempty"` // simulated cycles of a job span
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans from any goroutine.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a span covering [start, end).
func (t *tracer) record(name string, parent int64, start, end time.Time, cycles uint64) {
	s := span{Name: name, Parent: parent, ID: t.ids.Add(1), Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Cycles: cycles}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark returns a position; since(name, pos) lists spans recorded after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(name string, pos int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans[pos:] {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names.
const (
	spanBatch = "engine.backend_batch" // one batch handed to the backend
	spanJob   = "fame.job"             // one job simulated by the backend
	spanAdmit = "service.admit"        // submit request → response headers
	spanCall  = "engine.call"          // one direct engine call by the benchmark
)

// spanBackend decorates the engine's execution backend: it runs each job
// of a batch as its own one-job call on the inner backend, so every
// simulated job gets its own span. A shared semaphore sized to the inner
// capacity keeps concurrent batches from queueing inside the inner
// backend, where waiting would be counted as simulating.
type spanBackend struct {
	inner engine.Backend
	tr    *tracer
	sem   chan struct{}
}

func newSpanBackend(inner engine.Backend, tr *tracer) *spanBackend {
	return &spanBackend{inner: inner, tr: tr, sem: make(chan struct{}, inner.Capacity())}
}

func (b *spanBackend) Name() string                      { return "traced(" + b.inner.Name() + ")" }
func (b *spanBackend) Capacity() int                     { return b.inner.Capacity() }
func (b *spanBackend) Healthy(ctx context.Context) error { return b.inner.Healthy(ctx) }

func (b *spanBackend) Run(ctx context.Context, jobs []engine.Job) ([]engine.Result, error) {
	return b.RunProgress(ctx, jobs, nil)
}

// RunProgress implements engine.ProgressBackend. Jobs that never start
// because ctx ends come back Skipped.
func (b *spanBackend) RunProgress(ctx context.Context, jobs []engine.Job, done func(int, engine.Result)) ([]engine.Result, error) {
	batchStart := time.Now()
	batch := b.tr.ids.Add(1)
	out := make([]engine.Result, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		select {
		case b.sem <- struct{}{}:
		case <-ctx.Done():
			for k := i; k < len(jobs); k++ {
				out[k] = engine.Result{Job: jobs[k], Err: ctx.Err(), Skipped: true}
			}
			wg.Wait()
			return out, nil
		}
		wg.Add(1)
		go func(i int, j engine.Job) {
			defer wg.Done()
			defer func() { <-b.sem }()
			start := time.Now()
			rs, err := b.inner.Run(ctx, []engine.Job{j})
			r := engine.Result{Job: j, Err: err, Skipped: true}
			if err == nil && len(rs) == 1 {
				r = rs[0]
			}
			var cycles uint64
			if !r.Skipped && r.Err == nil {
				cycles = r.Pair.Cycles
			}
			b.tr.record(spanJob, batch, start, time.Now(), cycles)
			out[i] = r
			if done != nil {
				done(i, r)
			}
		}(i, j)
	}
	wg.Wait()
	b.tr.record(spanBatch, 0, batchStart, time.Now(), 0)
	return out, nil
}

// admitTransport times each submit request until its response headers
// arrive: the daemon's admission path.
type admitTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *admitTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if req.URL.Path == service.SubmitPath {
		t.tr.record(spanAdmit, 0, start, time.Now(), 0)
	}
	return resp, err
}

// jobStats summarizes backend job spans.
type jobStats struct {
	jobs   int
	cycles uint64
	busy   time.Duration
}

func summarizeJobs(spans []span) jobStats {
	var s jobStats
	for _, sp := range spans {
		s.jobs++
		s.cycles += sp.Cycles
		s.busy += sp.dur()
	}
	return s
}

func (s jobStats) set(res *result) {
	res.set("fame.jobs", float64(s.jobs))
	res.set("fame.sim_cycles", float64(s.cycles))
	res.set("fame.busy_s", s.busy.Seconds())
	nsPer := 0.0
	if s.cycles > 0 {
		nsPer = float64(s.busy.Nanoseconds()) / float64(s.cycles)
	}
	res.set("fame.ns_per_sim_cycle", nsPer)
}

// Simulator probes: direct calls into core and fame on fixed inputs,
// comparable with the repository's simulator report.

// busyPairChip places the busy SMT pair the simulator report's
// step_throughput uses: cpu_int against itself at (4,4), 64 iterations.
func busyPairChip() (*core.Chip, error) {
	k, err := microbench.BuildWith(microbench.CPUInt, microbench.Params{Iters: 64})
	if err != nil {
		return nil, err
	}
	ch := core.NewChip(core.DefaultConfig())
	ch.PlacePair(k, k, prio.Medium, prio.Medium, prio.User)
	return ch, nil
}

// stepNsPerCycle times raw Chip.Step on the busy pair; the median of
// three passes.
func stepNsPerCycle(cycles int) (float64, error) {
	var per []float64
	for pass := 0; pass < 3; pass++ {
		ch, err := busyPairChip()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < cycles; i++ {
			ch.Step()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(cycles))
	}
	return median(per), nil
}

// memBoundChip places the calibration matrix's memory-bound diagonal
// cell, ldint_mem against itself at (4,4), at golden fidelity.
func memBoundChip() (*core.Chip, error) {
	reg := workload.NewRegistry()
	ref, err := reg.Resolve(microbench.LdIntMem)
	if err != nil {
		return nil, err
	}
	k, err := reg.Build(ref, goldenIterScale)
	if err != nil {
		return nil, err
	}
	ch := core.NewChip(core.DefaultConfig())
	ch.PlacePair(k, k, prio.Medium, prio.Medium, prio.Supervisor)
	return ch, nil
}

// ffRatio measures one FAME measurement with fast-forward off and on and
// returns off-time ÷ on-time. The two results must be identical; the
// previous fast-forward setting is restored. Each mode is re-run on
// fresh chips until enough host time accumulates to time it.
func ffRatio(build func() (*core.Chip, error)) (float64, error) {
	const minSeconds, maxReps = 0.3, 64
	opt := goldenFame()
	timed := func() (fame.PairResult, float64, error) {
		var res fame.PairResult
		var total float64
		reps := 0
		for total < minSeconds && reps < maxReps {
			ch, err := build()
			if err != nil {
				return res, 0, err
			}
			start := time.Now()
			res = fame.Measure(ch, opt)
			total += time.Since(start).Seconds()
			reps++
		}
		return res, total / float64(reps), nil
	}
	prev := fame.SetFastForward(false)
	defer fame.SetFastForward(prev)
	resOff, off, err := timed()
	if err != nil {
		return 0, err
	}
	fame.SetFastForward(true)
	resOn, on, err := timed()
	if err != nil {
		return 0, err
	}
	if resOff != resOn {
		return 0, fmt.Errorf("fast-forward changed the result: off %+v, on %+v", resOff, resOn)
	}
	return off / on, nil
}
