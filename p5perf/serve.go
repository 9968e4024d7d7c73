package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"power5prio/internal/analytic"
	"power5prio/internal/cachestore"
	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/experiments"
	"power5prio/internal/prio"
	"power5prio/internal/service"
	"power5prio/internal/workload"
)

// The serving workloads send one-job queries to an in-process p5d
// (service.New + service.Serve on 127.0.0.1:0) from closed-loop clients,
// one tenant each: a client sends its next query when the previous one is
// answered. Queries are seeded, Zipf-skewed draws from the calibration
// universe — every (primary, secondary, diff) cell of calib.json — so
// every answer has a committed reference.
//
//   - query-mix: half the queries accept a tier-0 answer at the default
//     tolerance, half ask for exact answers. The engine has the analytic
//     estimator and a fresh disk store per round, so every tier works:
//     estimate, memory hit, coalesce, simulate, and the store's write path.
//   - warm-restart: estimates off. Set-up fills a store with every cell;
//     each round opens a fresh engine and daemon over it, so a cell's first
//     query reads the disk, repeats hit memory and nothing is simulated.

// The stream's shape is an assumption: the repository records no p5d
// query log. Its length and skew are chosen for the mix of answer tiers
// they give a query-mix round, which the run reports:
//
//   - about half the answers are tier-0 estimates (the queries that accept
//     one, less the few cells whose error bar exceeds the tolerance);
//   - each of the 180 cells is simulated once (the coldest cell is drawn
//     ~9 times, ~4.5 of them exact, so a seed leaves 0.3 cells unsimulated
//     on average), so the simulated count and its cost barely depend on
//     the seed;
//   - those 180 simulations are 3% of the answers, three times the 1%
//     tail that latency_p99_ms reads, so p99 is the simulated tier's
//     latency and p50 the estimate and memory-hit tiers';
//   - the other ~47% are memory hits, and coalesced joins of an in-flight
//     simulation.
//
// Simulation thus takes most of a query-mix round's wall time; the
// serving path alone is what warm-restart times.

// streamLen is the number of queries in one round.
const streamLen = 6000

// Zipf parameters of the cell popularity: P(rank k) ∝ (zipfV+k)^-zipfS.
// The hottest cell draws ~25× the coldest (3.9% of the queries against
// 0.15%).
const (
	zipfS = 1.1
	zipfV = 10
)

// cell is one entry of the calibration universe.
type cell struct {
	row experiments.CalibRow
	job engine.Job
}

// universe builds the job of every calib.json row with the golden
// measurement parameters.
func universe(rf *refs, reg *workload.Registry) ([]cell, error) {
	cells := make([]cell, len(rf.calib.Rows))
	for i, row := range rf.calib.Rows {
		rp, err := reg.Resolve(row.Primary)
		if err != nil {
			return nil, err
		}
		rs, err := reg.Resolve(row.Secondary)
		if err != nil {
			return nil, err
		}
		pp, ps := experiments.DiffPair(row.Diff)
		cells[i] = cell{row: row, job: engine.Pair(rp, rs, pp, ps, prio.Supervisor, goldenIterScale, core.DefaultConfig(), goldenFame())}
	}
	return cells, nil
}

// query is one stream entry: a cell, and whether a tier-0 answer is
// acceptable.
type query struct {
	cell     int
	estimate bool
}

// makeStream draws a round's queries from the seed. The seed also
// decides which cells are popular.
func makeStream(seed int64, cells int, mixed bool) []query {
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(cells)
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(cells-1))
	qs := make([]query, streamLen)
	for i := range qs {
		qs[i].cell = rank[z.Uint64()]
		if mixed {
			qs[i].estimate = rng.Intn(2) == 0
		}
	}
	return qs
}

// serveEnv is a serving workload's set-up state.
type serveEnv struct {
	o      opts
	rf     *refs
	cells  []cell
	stream []query
	tol    float64
	mixed  bool            // query-mix: estimates enabled, fresh store per round
	model  *analytic.Model // calibrated in set-up
	store  string          // warm-restart: the filled store
	// clients is the number of closed-loop tenants: nproc on query-mix,
	// where tenants coalesce onto each other's simulations; one on
	// warm-restart, which times the serving path alone.
	clients int

	calibS    float64   // set-up calibration time
	fillRate  float64   // warm-restart: simulated cycles per second of the store fill
	fillRates []float64 // ... of every set-up
}

// exactCell reports whether a query's answer must come from simulation
// (or a cache of it): exact queries, and tier-0 queries whose committed
// error bar is beyond the tolerance.
func (env *serveEnv) exactCell(q query) bool {
	return !q.estimate || env.cells[q.cell].row.ErrorBar > env.tol
}

// exactCells lists, in order, the cells the stream needs exact answers
// for.
func (env *serveEnv) exactCells() []int {
	seen := make([]bool, len(env.cells))
	for _, q := range env.stream {
		if env.exactCell(q) {
			seen[q.cell] = true
		}
	}
	var out []int
	for c, ok := range seen {
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// expected derives the exact counts a round must reproduce from the
// stream and calib.json alone.
func (env *serveEnv) expected() (simulated, estimated, distinct int) {
	all := map[int]bool{}
	for _, q := range env.stream {
		all[q.cell] = true
		if !env.exactCell(q) {
			estimated++
		}
	}
	if env.mixed {
		simulated = len(env.exactCells())
	}
	return simulated, estimated, len(all)
}

// Answer tiers as the client sees them.
const (
	tierEstimate  = "estimate"
	tierHit       = "hit"
	tierCoalesced = "coalesced"
	tierSimulated = "simulated"
)

var tiers = []string{tierEstimate, tierHit, tierCoalesced, tierSimulated}

// serveRound is one pass of the stream through a fresh engine and daemon.
// Its latencies are per query.
type serveRound struct {
	timing
	tier      []string        // per query
	answers   []engine.Result // per query; dropped once checked
	failed    int
	stats     engine.Stats
	dstats    service.Stats
	retries   int
	simulated int    // answers that simulated
	cycles    uint64 // their cycles
	estimated int
	estErr    float64 // est_max_abs_err of the round's answers
	paperErr  float64 // paper_mean_rel_err of the round's answers
	jobs      jobStats
	admit     []time.Duration
	hop       time.Duration
	selfMS    float64
	getUS     float64
	putUS     float64
	bytes     int64
}

// cellState tracks a cell's exact answers during a round, so an answer
// served from cache while another query for the cell was still in
// flight can be told apart as coalesced.
type cellState struct {
	mu       sync.Mutex
	answered []bool
	inflight []int
}

func runQueryMix(ctx context.Context, o opts, res *result) error {
	env, err := timedSetups(res, setupRepeats, setupTime, func() (*serveEnv, error) {
		env, err := newServeEnv(o, true)
		if err != nil {
			return nil, err
		}
		// Calibrate the estimator on every workload of the universe.
		start := time.Now()
		for _, c := range env.cells {
			if c.row.Primary == c.row.Secondary && c.row.Diff == 0 {
				if _, ok := env.model.EstimateJob(c.job); !ok {
					return nil, fmt.Errorf("estimator declined %s", c.row.Primary)
				}
			}
		}
		env.calibS = time.Since(start).Seconds()
		return env, nil
	})
	if err != nil {
		return err
	}
	return runServing(ctx, env, res)
}

func runWarmRestart(ctx context.Context, o opts, res *result) error {
	var prev string
	var rates []float64
	env, err := timedSetups(res, fillSetupRepeats, 0, func() (*serveEnv, error) {
		if prev != "" {
			os.RemoveAll(prev)
		}
		env, err := newServeEnv(o, false)
		if err != nil {
			return nil, err
		}
		if err := env.fill(ctx, res); err != nil {
			return nil, err
		}
		prev = env.store
		rates = append(rates, env.fillRate)
		return env, nil
	})
	if err != nil {
		return err
	}
	env.fillRates = rates

	// The rounds simulate nothing, so they run on one core: one client's
	// queries then hand off between goroutines without waking a second
	// core. With two cores (or two clients) each handoff's cross-core
	// wake-up cost 40% on p50 and 2-5x on p99, and swung with the host's
	// load, hiding the serving path's own cost.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return runServing(ctx, env, res)
}

func newServeEnv(o opts, mixed bool) (*serveEnv, error) {
	rf, err := loadRefs(o.root)
	if err != nil {
		return nil, err
	}
	reg := workload.NewRegistry()
	cells, err := universe(rf, reg)
	if err != nil {
		return nil, err
	}
	clients := 1
	if mixed {
		clients = o.workers
	}
	return &serveEnv{
		o: o, rf: rf, cells: cells, mixed: mixed, clients: clients,
		stream: makeStream(o.seed, len(cells), mixed),
		tol:    analytic.DefaultTolerance(),
		model:  analytic.New(engine.NewWith(o.workers, reg)),
	}, nil
}

// fill simulates every cell into a fresh store and calibrates the
// estimator into it, checking every simulated answer.
func (env *serveEnv) fill(ctx context.Context, res *result) error {
	dir, err := os.MkdirTemp(env.o.scratch, "warm-")
	if err != nil {
		return err
	}
	st, err := cachestore.Open(dir)
	if err != nil {
		return err
	}
	eng := engine.NewWith(env.o.workers, nil, engine.WithStore(st))
	jobs := make([]engine.Job, len(env.cells))
	for i, c := range env.cells {
		jobs[i] = c.job
	}
	start := time.Now()
	out := eng.Run(ctx, jobs)
	secs := time.Since(start).Seconds()
	var cycles uint64
	for i, r := range out {
		if r.Err != nil {
			return fmt.Errorf("fill %s+%s: %w", r.Job.Primary.Name, r.Job.Secondary.Name, r.Err)
		}
		if err := checkExact(env.cells[i].row, r.Pair); err != nil {
			res.fail("store fill: %v", err)
		}
		cycles += r.Pair.Cycles
	}
	if s := eng.Stats(); s.DiskWrites != len(jobs) {
		return fmt.Errorf("fill wrote %d of %d entries", s.DiskWrites, len(jobs))
	}
	env.fillRate = float64(cycles) / secs
	env.model = analytic.New(eng)
	start = time.Now()
	for _, c := range env.cells {
		if _, ok := env.model.EstimateJob(c.job); !ok {
			return fmt.Errorf("estimator declined (%s,%s)", c.row.Primary, c.row.Secondary)
		}
	}
	env.calibS = time.Since(start).Seconds()
	env.store = dir
	return nil
}

// runServing runs the timed rounds and reports the serving metrics.
func runServing(ctx context.Context, env *serveEnv, res *result) error {
	o := env.o
	expSim, expEst, distinct := env.expected()
	mode := "warm-restart"
	if env.mixed {
		mode = "query-mix"
	}
	res.note("%s: seed %d, %d queries per round over %d distinct cells from %d closed-loop client(s), %d-worker pool, %d core(s); expect %d simulated, %d estimated",
		mode, o.seed, len(env.stream), distinct, env.clients, o.workers, runtime.GOMAXPROCS(0), expSim, expEst)

	plain, traced, err := runRounds(ctx, o, res, func(tr *tracer) (serveRound, error) {
		return env.round(ctx, tr, res)
	})
	if err != nil {
		return err
	}

	all := append(append([]serveRound(nil), plain...), traced...)
	for i, r := range all {
		res.Attempted += len(r.lat)
		res.Failed += r.failed
		if r.simulated != expSim || r.stats.Simulated != expSim {
			res.fail("round %d simulated %d jobs (engine: %d), the stream has %d distinct exact cells", i, r.simulated, r.stats.Simulated, expSim)
		}
		if r.estimated != expEst || r.stats.EstimatedHits != expEst {
			res.fail("round %d served %d estimates (engine: %d), calib.json predicts %d", i, r.estimated, r.stats.EstimatedHits, expEst)
		}
		if !env.mixed && r.stats.DiskHits != distinct {
			res.fail("round %d read %d cells from the store, the stream has %d", i, r.stats.DiskHits, distinct)
		}
		if r.estErr != all[0].estErr || r.paperErr != all[0].paperErr {
			res.fail("round %d accuracy (%v, %v) differs from round 0 (%v, %v)", i, r.estErr, r.paperErr, all[0].estErr, all[0].paperErr)
		}
		if r.cycles != all[0].cycles {
			res.fail("round %d simulated %d cycles, round 0 %d", i, r.cycles, all[0].cycles)
		}
		if r.jobs.jobs != 0 && (r.jobs.jobs != r.simulated || r.jobs.cycles != r.cycles) {
			res.fail("round %d backend spans (%d jobs, %d cycles) disagree with answers (%d, %d)", i, r.jobs.jobs, r.jobs.cycles, r.simulated, r.cycles)
		}
	}

	shares := tierShares(all)
	res.note("%s: answer tiers per round (estimate/hit/coalesced/simulated): %s", mode, shareList(all))
	t := summarize(plain)
	if !o.trace {
		res.set("wall_s", t.wall)
		if env.mixed {
			res.set("sim_cycles_per_s", float64(all[0].cycles)/t.wall)
		} else {
			res.set("sim_cycles_per_s", median(env.fillRates))
		}
		res.set("queries_per_s", float64(len(env.stream))/t.wall)
		res.set("latency_p50_ms", t.p50)
		res.set("latency_p99_ms", t.p99)
		res.set("max_rss_mb", maxRSSMB())
		res.set("est_max_abs_err", all[0].estErr)
		res.set("paper_mean_rel_err", all[0].paperErr)
		res.note("%s: %d rounds [%s s]; latency percentiles are medians over rounds of %d queries each (%d samples); %d simulated (%d cycles), %d estimated per round",
			mode, len(plain), secondsList(t.walls), len(env.stream), t.samples, all[0].simulated, all[0].cycles, all[0].estimated)
		return nil
	}

	tr := traced[0]
	byTier := map[string][]float64{}
	var admit []float64
	for _, r := range traced {
		for i, d := range r.lat {
			byTier[r.tier[i]] = append(byTier[r.tier[i]], ms(d))
		}
		for _, d := range r.admit {
			admit = append(admit, us(d))
		}
	}
	for _, name := range tiers {
		res.set("tier."+name+"_p50_ms", quantile(byTier[name], 0.5))
		res.set("tier."+name+"_p99_ms", quantile(byTier[name], 0.99))
		res.set("tier."+name+"_share", shares[name])
	}
	estUS, err := env.estimateUS()
	if err != nil {
		return err
	}
	setEngineStats(res, tr.stats)
	tr.jobs.set(res)
	res.set("engine.self_ms", tr.selfMS)
	res.set("service.admit_us", median(admit))
	res.set("service.hop_us", us(tr.hop))
	res.set("service.rejected", float64(tr.dstats.Rejected))
	res.set("service.requeued", float64(tr.dstats.Requeued))
	res.set("service.retries", float64(tr.retries))
	res.set("cachestore.get_us", tr.getUS)
	res.set("cachestore.put_us", tr.putUS)
	res.set("cachestore.bytes", float64(tr.bytes))
	res.set("analytic.estimate_us", estUS)
	res.set("analytic.calibrations", float64(env.model.Calibrations()))
	res.set("analytic.calibrate_s", env.calibS)
	res.set("latency.samples", float64(t.samples))
	res.set("trace.overhead_s", summarize(traced).wall-t.wall)
	res.note("%s traced: %d untraced + %d traced rounds; tier samples: estimate %d, hit %d, coalesced %d, simulated %d",
		mode, len(plain), len(traced), len(byTier[tierEstimate]), len(byTier[tierHit]), len(byTier[tierCoalesced]), len(byTier[tierSimulated]))
	return nil
}

// tierShares is, per answer tier, the median over rounds of the share of
// a round's queries that tier answered.
func tierShares(rounds []serveRound) map[string]float64 {
	per := map[string][]float64{}
	for _, r := range rounds {
		for name, share := range r.shares() {
			per[name] = append(per[name], share)
		}
	}
	out := map[string]float64{}
	for _, name := range tiers {
		out[name] = median(per[name])
	}
	return out
}

// shares is the share of the round's queries each answer tier answered.
func (r serveRound) shares() map[string]float64 {
	counts := map[string]int{}
	for _, name := range r.tier {
		counts[name]++
	}
	out := make(map[string]float64, len(tiers))
	for _, name := range tiers {
		out[name] = float64(counts[name]) / float64(len(r.tier))
	}
	return out
}

// shareList renders every round's tier shares for the notes.
func shareList(rounds []serveRound) string {
	parts := make([]string, len(rounds))
	for i, r := range rounds {
		sh := r.shares()
		parts[i] = fmt.Sprintf("%.4f/%.4f/%.4f/%.4f", sh[tierEstimate], sh[tierHit], sh[tierCoalesced], sh[tierSimulated])
	}
	return strings.Join(parts, " ")
}

// round sends the whole stream through a fresh engine and daemon and
// checks every answer against calib.json.
func (env *serveEnv) round(ctx context.Context, tr *tracer, res *result) (serveRound, error) {
	o := env.o
	dir := env.store
	if env.mixed {
		d, err := os.MkdirTemp(o.scratch, "store-")
		if err != nil {
			return serveRound{}, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	st, err := cachestore.Open(dir)
	if err != nil {
		return serveRound{}, err
	}
	reg := workload.NewRegistry()
	var backend engine.Backend = engine.NewLocalBackend(o.workers, reg)
	pos := 0
	if tr != nil {
		backend = newSpanBackend(backend, tr)
		pos = tr.mark()
	}
	eng := engine.NewWith(o.workers, reg, engine.WithStore(st), engine.WithBackend(backend))
	if env.mixed {
		eng.SetEstimator(env.model)
	}

	d := service.New(eng, nil, service.Config{Dispatchers: o.workers})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return serveRound{}, err
	}
	runCtx, stopRun := context.WithCancel(ctx)
	serveCtx, stopServe := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.Run(runCtx)
	}()
	serveErr := make(chan error, 1)
	go func() { serveErr <- service.Serve(serveCtx, lis, d) }()

	r := serveRound{
		timing:  timing{lat: make([]time.Duration, len(env.stream))},
		tier:    make([]string, len(env.stream)),
		answers: make([]engine.Result, len(env.stream)),
	}
	cs := &cellState{answered: make([]bool, len(env.cells)), inflight: make([]int, len(env.cells))}
	clients := make([]*loopClient, env.clients)
	for c := range clients {
		clients[c] = newLoopClient(lis.Addr().String(), fmt.Sprintf("tenant-%d", c), env.tol, tr)
	}
	errs := make([]error, len(clients))
	start := time.Now()
	var cwg sync.WaitGroup
	for c, cl := range clients {
		cwg.Add(1)
		go func(c int, cl *loopClient) {
			defer cwg.Done()
			for i := c; i < len(env.stream); i += len(clients) {
				if err := env.send(ctx, cl, cs, i, &r); err != nil {
					errs[c] = err
					return
				}
			}
		}(c, cl)
	}
	cwg.Wait()
	r.wall = time.Since(start)

	for _, cl := range clients {
		r.retries += cl.retries()
	}
	r.dstats = d.Stats()
	r.stats = eng.Stats()
	var perr error
	if tr != nil {
		perr = env.probe(ctx, eng, clients[0], st, &r)
	}
	stopServe()
	serr := <-serveErr
	stopRun()
	wg.Wait()
	for _, cl := range clients {
		cl.close()
	}
	if err := errors.Join(append(errs, serr, perr)...); err != nil {
		return r, err
	}
	if tr != nil {
		r.jobs = summarizeJobs(tr.since(spanJob, pos))
		for _, s := range tr.since(spanAdmit, pos) {
			r.admit = append(r.admit, s.dur())
		}
		if err := env.replay(ctx, dir, tr, &r); err != nil {
			return r, err
		}
	}
	env.check(&r, res)
	if r.estErr, r.paperErr, err = env.accuracy(r); err != nil {
		return r, err
	}
	r.answers = nil
	return r, nil
}

// send issues stream query i and records its latency and answer tier.
func (env *serveEnv) send(ctx context.Context, cl *loopClient, cs *cellState, i int, r *serveRound) error {
	q := env.stream[i]
	exact := env.exactCell(q)
	var joined bool
	if exact {
		cs.mu.Lock()
		joined = !cs.answered[q.cell] && cs.inflight[q.cell] > 0
		cs.inflight[q.cell]++
		cs.mu.Unlock()
	}
	b := cl.exact
	if q.estimate {
		b = cl.est
	}
	start := time.Now()
	out, err := b.Run(ctx, []engine.Job{env.cells[q.cell].job})
	r.lat[i] = time.Since(start)
	if err == nil && len(out) != 1 {
		err = fmt.Errorf("got %d results for one job", len(out))
	}
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.answers[i] = engine.Result{Err: err}
		return nil
	}
	a := out[0]
	r.answers[i] = a
	switch {
	case a.Estimated:
		r.tier[i] = tierEstimate
	case !a.CacheHit:
		r.tier[i] = tierSimulated
	case joined:
		r.tier[i] = tierCoalesced
	default:
		r.tier[i] = tierHit
	}
	if exact {
		cs.mu.Lock()
		cs.inflight[q.cell]--
		cs.answered[q.cell] = true
		cs.mu.Unlock()
	}
	return nil
}

// check verifies every answer of a round against calib.json and counts
// the simulated and estimated answers.
func (env *serveEnv) check(r *serveRound, res *result) {
	for i, a := range r.answers {
		q := env.stream[i]
		row := env.cells[q.cell].row
		var err error
		switch {
		case a.Err != nil || a.Skipped:
			err = fmt.Errorf("query %d (%s,%s,%+d) failed: %v", i, row.Primary, row.Secondary, row.Diff, a.Err)
		case a.Estimated && env.exactCell(q):
			err = fmt.Errorf("query %d (%s,%s,%+d) was answered by tier 0 but needs an exact answer", i, row.Primary, row.Secondary, row.Diff)
		case !a.Estimated && !env.exactCell(q):
			err = fmt.Errorf("query %d (%s,%s,%+d) escalated although its bar %v is within tolerance %v", i, row.Primary, row.Secondary, row.Diff, row.ErrorBar, env.tol)
		case a.Estimated:
			err = checkEstimate(row, a.Pair, a.ErrorBar)
			r.estimated++
		default:
			err = checkExact(row, a.Pair)
			if !a.CacheHit {
				r.simulated++
				r.cycles += a.Pair.Cycles
			}
		}
		if err != nil {
			r.failed++
			if r.failed <= 5 { // the first few explain it; failed counts all
				res.fail("%v", err)
			}
		}
	}
}

// accuracy computes the fidelity metrics of one round's answers:
// est_max_abs_err, the worst distance between a tier-0 prediction and the
// golden simulation, and paper_mean_rel_err, the mean relative error of
// the exact (4,4) answers whose cell is in the paper's Table 3. On
// warm-restart, where tier 0 is off, the predictions come from direct
// estimator calls on the served cells.
func (env *serveEnv) accuracy(r serveRound) (estErr, paperErr float64, err error) {
	exactSeen := make([]bool, len(env.cells))
	for i, a := range r.answers {
		q := env.stream[i]
		row := env.cells[q.cell].row
		if a.Estimated {
			estErr = math.Max(estErr, estError(row, a.Pair))
			continue
		}
		exactSeen[q.cell] = true
	}
	var sum float64
	var n int
	for c, seen := range exactSeen {
		if !seen {
			continue
		}
		row := env.cells[c].row
		if !env.mixed {
			est, ok := env.model.EstimateJob(env.cells[c].job)
			if !ok {
				return 0, 0, fmt.Errorf("estimator declined (%s,%s)", row.Primary, row.Secondary)
			}
			if err := checkEstimate(row, est.Pair, est.ErrorBar); err != nil {
				return 0, 0, err
			}
			estErr = math.Max(estErr, estError(row, est.Pair))
		}
		// check has proved every exact answer equal to the golden
		// simulation, so the reference value stands for the answer.
		if paper, ok := experiments.PaperTable3[row.Primary][row.Secondary]; ok && row.Diff == 0 {
			sum += math.Abs(row.SimulatedP-paper.PT) / paper.PT
			n++
		}
	}
	if n == 0 {
		return 0, 0, errors.New("no exact answer for a Table 3 cell")
	}
	return estErr, sum / float64(n), nil
}

// estimateUS is the median host time of one direct tier-0 estimate over
// the stream's cells.
func (env *serveEnv) estimateUS() (float64, error) {
	var xs []float64
	for _, q := range env.stream {
		start := time.Now()
		_, ok := env.model.EstimateJob(env.cells[q.cell].job)
		xs = append(xs, us(time.Since(start)))
		if !ok {
			row := env.cells[q.cell].row
			return 0, fmt.Errorf("estimate probe: estimator declined (%s,%s)", row.Primary, row.Secondary)
		}
	}
	return median(xs), nil
}

// probe measures, on a traced round's warm daemon, the service hop: the
// median of a memory-hit query through p5d minus the same query straight
// through the daemon's engine. Every probe call must succeed with a
// cached answer, or the run fails: a layer metric never comes from calls
// that failed.
func (env *serveEnv) probe(ctx context.Context, eng *engine.Engine, cl *loopClient, st *cachestore.Store, r *serveRound) error {
	const n = 200
	hot := env.hottestExact()
	job := []engine.Job{env.cells[hot].job}
	hit := func(how string, out []engine.Result) error {
		if len(out) != 1 {
			return fmt.Errorf("hop probe: %s query got %d results for one job", how, len(out))
		}
		if a := out[0]; a.Err != nil || a.Skipped || !a.CacheHit {
			return fmt.Errorf("hop probe: %s query for a cached cell: err %v, skipped %v, cache hit %v", how, a.Err, a.Skipped, a.CacheHit)
		}
		return nil
	}
	var viaDaemon, direct []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		out, err := cl.exact.Run(ctx, job)
		viaDaemon = append(viaDaemon, float64(time.Since(start)))
		if err != nil {
			return fmt.Errorf("hop probe: %w", err)
		}
		if err := hit("daemon", out); err != nil {
			return err
		}
		start = time.Now()
		out = eng.RunEstimate(ctx, job, nil, nil)
		direct = append(direct, float64(time.Since(start)))
		if err := hit("engine", out); err != nil {
			return err
		}
	}
	r.hop = time.Duration(median(viaDaemon) - median(direct))

	// Store reads and writes of the round's own entries, by direct call:
	// every cell answered exactly is in the store.
	var gets, puts []float64
	scratch, err := os.MkdirTemp(env.o.scratch, "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	ps, err := cachestore.Open(scratch)
	if err != nil {
		return err
	}
	for _, c := range env.exactCells() {
		key := engine.JobKey(env.cells[c].job)
		start := time.Now()
		payload, err := st.Get(key)
		gets = append(gets, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("store probe: get (%s,%s,%+d): %w", env.cells[c].row.Primary, env.cells[c].row.Secondary, env.cells[c].row.Diff, err)
		}
		start = time.Now()
		err = ps.Put(key, payload)
		puts = append(puts, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("store probe: put: %w", err)
		}
	}
	r.getUS, r.putUS = median(gets), median(puts)
	info, err := st.Info()
	if err != nil {
		return err
	}
	r.bytes = info.Bytes
	return nil
}

// hottestExact returns the most queried cell among exact answers.
func (env *serveEnv) hottestExact() int {
	counts := make([]int, len(env.cells))
	for _, q := range env.stream {
		if env.exactCell(q) {
			counts[q.cell]++
		}
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best
}

// replay sends the stream's queries one at a time straight to a fresh
// engine over the round's store and reports the median engine self time:
// call time not covered by backend job spans.
func (env *serveEnv) replay(ctx context.Context, dir string, tr *tracer, r *serveRound) error {
	st, err := cachestore.Open(dir)
	if err != nil {
		return err
	}
	reg := workload.NewRegistry()
	eng := engine.NewWith(env.o.workers, reg, engine.WithStore(st), engine.WithBackend(newSpanBackend(engine.NewLocalBackend(env.o.workers, reg), tr)))
	if env.mixed {
		eng.SetEstimator(env.model)
	}
	self := make([]float64, 0, len(env.stream))
	for _, q := range env.stream {
		mode := engine.EstimateOff()
		if q.estimate {
			mode = engine.EstimateTolerance(env.tol)
		}
		pos := tr.mark()
		start := time.Now()
		eng.RunEstimate(ctx, []engine.Job{env.cells[q.cell].job}, []engine.EstimateMode{mode}, nil)
		end := time.Now()
		tr.record(spanCall, 0, start, end, 0)
		busy := summarizeJobs(tr.since(spanJob, pos)).busy
		self = append(self, ms(end.Sub(start)-busy))
	}
	r.selfMS = median(self)
	return nil
}

// loopClient is one closed-loop tenant: a p5d client for exact queries
// and one for tier-0 queries, sharing a tenant ID and a connection pool.
type loopClient struct {
	transport *http.Transport
	exact     *service.Client
	est       *service.Client
}

func newLoopClient(addr, tenant string, tol float64, tr *tracer) *loopClient {
	transport := &http.Transport{}
	var rt http.RoundTripper = transport
	if tr != nil {
		rt = &admitTransport{base: transport, tr: tr}
	}
	hc := &http.Client{Transport: rt}
	return &loopClient{
		transport: transport,
		exact:     service.NewClient(addr, service.WithClientID(tenant), service.WithHTTPClient(hc), service.WithEstimate(engine.EstimateOff())),
		est:       service.NewClient(addr, service.WithClientID(tenant), service.WithHTTPClient(hc), service.WithEstimate(engine.EstimateTolerance(tol))),
	}
}

func (c *loopClient) retries() int {
	return c.exact.RemoteStats().Retries + c.est.RemoteStats().Retries
}

func (c *loopClient) close() { c.transport.CloseIdleConnections() }
