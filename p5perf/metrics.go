package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark run reports: the contract's last line plus
// human-readable notes printed above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	notes    []string
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

// set records a metric under the unit its table declares.
func (r *result) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit, ok = perLayer[name]
	}
	if !ok {
		panic("p5perf: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed output check; the run then reports correct=false.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, the failed checks and, last, the JSON line.
func (r *result) write(w io.Writer) error {
	r.Correct = len(r.problems) == 0 && r.Failed == 0
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// secondsList renders round times for the notes.
func secondsList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timing is what every round reports for the timing metrics.
type timing struct {
	wall time.Duration
	lat  []time.Duration // per answered operation
}

func (t timing) timed() timing { return t }

// roundTimes summarizes rounds: the median wall time, and the median over
// rounds of each round's latency percentiles.
type roundTimes struct {
	walls          []float64
	wall, p50, p99 float64
	samples        int
}

func summarize[R interface{ timed() timing }](rounds []R) roundTimes {
	var t roundTimes
	var p50s, p99s []float64
	for _, r := range rounds {
		rt := r.timed()
		t.walls = append(t.walls, rt.wall.Seconds())
		latMS := durationsMS(rt.lat)
		p50s = append(p50s, quantile(latMS, 0.5))
		p99s = append(p99s, quantile(latMS, 0.99))
		t.samples += len(latMS)
	}
	t.wall, t.p50, t.p99 = median(t.walls), median(p50s), median(p99s)
	return t
}

// timedSetups runs setup at least n times and until minTime has elapsed,
// each on a freshly collected heap, reports the median duration as
// setup_s and returns the last set-up's state.
func timedSetups[T any](res *result, n int, minTime time.Duration, setup func() (T, error)) (T, error) {
	var st T
	var secs []float64
	begin := time.Now()
	for i := 0; i < n || time.Since(begin) < minTime; i++ {
		runtime.GC()
		start := time.Now()
		s, err := setup()
		if err != nil {
			return st, err
		}
		secs = append(secs, time.Since(start).Seconds())
		st = s
	}
	res.set("setup_s", median(secs))
	res.note("set-up: %d times, median %.4f s (min %.4f, max %.4f)", len(secs), median(secs), quantile(secs, 0), quantile(secs, 1))
	return st, nil
}

// A workload sets up at least setupRepeats times and for at least
// setupTime per run; setup_s is the median. A set-up of a few
// milliseconds is thus repeated hundreds of times, so one slow read does
// not move the median. warm-restart, whose set-up simulates the whole
// universe for seconds, sets up fillSetupRepeats times.
const (
	setupRepeats     = 5
	setupTime        = 3 * time.Second
	fillSetupRepeats = 3
)

// minRounds is the fewest timed rounds per run: a run with two rounds
// also checks that the exact counts repeat.
const minRounds = 2
