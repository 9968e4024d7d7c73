// Command p5perf is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output against the references
// the repository commits (the golden documents and calib.json), and
// prints its metrics, the JSON result last:
//
//	p5perf --workload regen-golden|query-mix|warm-restart --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes a separate traced run and reports the per-layer metrics, timed
// at the public seams of the repository's packages. See README.md for
// what each workload and metric means.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// opts is one run's configuration.
type opts struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	workers  int    // engine pool size and closed-loop client count
	root     string // module root holding the references
	scratch  string // per-run scratch directory inside the checkout
}

// endToEnd lists the end-to-end metrics and their units; every untraced
// run reports all of them.
var endToEnd = map[string]string{
	"setup_s": "s", "wall_s": "s", "sim_cycles_per_s": "1/s", "queries_per_s": "1/s",
	"latency_p50_ms": "ms", "latency_p99_ms": "ms", "max_rss_mb": "MB",
	"est_max_abs_err": "ipc", "paper_mean_rel_err": "frac",
}

// perLayer lists the per-layer metrics and their units; every traced run
// reports all of them, 0 where the workload does not exercise the layer.
var perLayer = map[string]string{
	"experiments.table3_s": "s", "experiments.table4_s": "s", "experiments.fig5_s": "s",
	"experiments.fig6_s": "s", "experiments.calib_s": "s",
	"engine.submitted": "count", "engine.simulated": "count", "engine.mem_hits": "count",
	"engine.disk_hits": "count", "engine.coalesced": "count", "engine.estimated": "count",
	"engine.escalated": "count", "engine.hit_ratio": "frac", "engine.self_ms": "ms",
	"tier.estimate_p50_ms": "ms", "tier.estimate_p99_ms": "ms", "tier.hit_p50_ms": "ms",
	"tier.hit_p99_ms": "ms", "tier.coalesced_p50_ms": "ms", "tier.coalesced_p99_ms": "ms",
	"tier.simulated_p50_ms": "ms", "tier.simulated_p99_ms": "ms",
	"tier.estimate_share": "frac", "tier.hit_share": "frac",
	"tier.coalesced_share": "frac", "tier.simulated_share": "frac",
	"fame.jobs": "count", "fame.sim_cycles": "count", "fame.busy_s": "s", "fame.ns_per_sim_cycle": "ns",
	"pipeline.step_ns_per_cycle": "ns", "core.ff_gain_membound": "ratio", "core.ff_tax_busy": "ratio",
	"analytic.estimate_us": "us", "analytic.calibrations": "count", "analytic.calibrate_s": "s",
	"cachestore.get_us": "us", "cachestore.put_us": "us", "cachestore.bytes": "bytes",
	"service.admit_us": "us", "service.hop_us": "us", "service.rejected": "count",
	"service.requeued": "count", "service.retries": "count",
	"latency.samples": "count", "trace.overhead_s": "s",
}

var workloads = map[string]func(context.Context, opts, *result) error{
	"regen-golden": runRegen,
	"query-mix":    runQueryMix,
	"warm-restart": runWarmRestart,
}

func main() {
	var o opts
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: regen-golden, query-mix or warm-restart")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.budget = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "p5perf:", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "p5perf:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, o opts) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.budget <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	root, err := locateRoot()
	if err != nil {
		return nil, err
	}
	o.root = root
	o.workers = min(runtime.NumCPU(), 2)
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	if o.scratch, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.scratch)

	res := newResult()
	if err := fn(ctx, o, res); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			delete(res.Metrics, name)
		}
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			if !o.trace {
				return nil, fmt.Errorf("metric %s was not measured", name)
			}
			res.set(name, 0)
		}
	}
	return res, nil
}

// repeatFor calls fn at least minN times and until budget has elapsed.
// Each call starts on a freshly collected heap, so no round pays for the
// garbage of the one before.
func repeatFor(ctx context.Context, budget time.Duration, minN int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < minN || time.Since(start) < budget; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.GC()
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// runRounds repeats round for the run's budget. An untraced run makes
// untraced rounds only. A traced run alternates untraced and traced
// rounds, so drift in the host's speed affects both sides of
// trace.overhead_s alike, and writes the spans out at the end.
func runRounds[R any](ctx context.Context, o opts, res *result, round func(tr *tracer) (R, error)) (plain, traced []R, err error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	err = repeatFor(ctx, o.budget, minRounds, func(i int) error {
		t := tr
		if i%2 == 0 {
			t = nil
		}
		r, err := round(t)
		if err != nil {
			return err
		}
		if t == nil {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
		return nil
	})
	if err != nil || tr == nil {
		return plain, traced, err
	}
	path := filepath.Join(o.root, ".bench_build", fmt.Sprintf("trace-%s-%d.ndjson", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return plain, traced, fmt.Errorf("write trace: %w", err)
	}
	res.note("spans written to %s", path)
	return plain, traced, nil
}
