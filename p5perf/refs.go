package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"power5prio/internal/core"
	"power5prio/internal/experiments"
	"power5prio/internal/fame"
	"power5prio/internal/prio"
)

// Output references. Every check in this benchmark compares against files
// the repository already commits: the golden documents of the quick
// experiment suite and the tier-0 calibration table calib.json. They are
// read in place from the module that holds them, never copied, so a
// justified golden refresh carries over to the benchmark unchanged.

// modulePath names the module whose references the benchmark checks.
const modulePath = "power5prio"

// goldenDir is the golden directory relative to the module root.
var goldenDir = filepath.Join("internal", "experiments", "testdata", "golden")

// goldenNames lists the golden documents of the quick experiment suite.
var goldenNames = []string{"table3.json", "table4.json", "fig5a.json", "fig5b.json", "fig6.json", "calib.json"}

// goldenHarness pins the measurement parameters the goldens were
// generated with, independently of experiments.Quick().
func goldenHarness() experiments.Harness {
	h := experiments.Default()
	h.Fame = goldenFame()
	h.IterScale = goldenIterScale
	h.Chip = core.DefaultConfig()
	h.Privilege = prio.Supervisor
	return h
}

const goldenIterScale = 0.25

func goldenFame() fame.Options {
	return fame.Options{MinReps: 3, WarmupReps: 1, MaxCycles: 120_000_000}
}

// refs holds the committed references, read once per set-up.
type refs struct {
	root   string
	golden map[string][]byte
	calib  experiments.CalibResult
}

// findModuleRoot walks up from dir to the directory whose go.mod declares
// modulePath.
func findModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if isModuleRoot(d) {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod declaring module %s above %s", modulePath, dir)
		}
		d = parent
	}
}

func isModuleRoot(dir string) bool {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fs := strings.Fields(sc.Text()); len(fs) == 2 && fs[0] == "module" {
			return fs[1] == modulePath
		}
	}
	return false
}

// locateRoot finds the module root from the working directory, then from
// the executable's directory, so the benchmark runs from anywhere inside
// a checkout.
func locateRoot() (string, error) {
	var errs []error
	if wd, err := os.Getwd(); err == nil {
		root, err := findModuleRoot(wd)
		if err == nil {
			return root, nil
		}
		errs = append(errs, err)
	}
	if exe, err := os.Executable(); err == nil {
		root, err := findModuleRoot(filepath.Dir(exe))
		if err == nil {
			return root, nil
		}
		errs = append(errs, err)
	}
	return "", errors.Join(errs...)
}

// loadRefs reads every reference file. A missing or unparsable file is
// an error: a check is never skipped.
func loadRefs(root string) (*refs, error) {
	r := &refs{root: root, golden: make(map[string][]byte)}
	for _, name := range goldenNames {
		b, err := os.ReadFile(filepath.Join(root, goldenDir, name))
		if err != nil {
			return nil, fmt.Errorf("read reference: %w", err)
		}
		r.golden[name] = b
	}
	if err := json.Unmarshal(r.golden["calib.json"], &r.calib); err != nil {
		return nil, fmt.Errorf("parse calib.json: %w", err)
	}
	if n := len(r.calib.Workloads) * len(r.calib.Workloads) * len(r.calib.Diffs); n == 0 || n != len(r.calib.Rows) {
		return nil, fmt.Errorf("calib.json: %d rows for %d workloads × %d diffs", len(r.calib.Rows), len(r.calib.Workloads), len(r.calib.Diffs))
	}
	if err := r.selfTest(); err != nil {
		return nil, fmt.Errorf("reference self-test: %w", err)
	}
	return r, nil
}

// encodeDoc renders a golden document exactly as the golden suite writes
// it: indented JSON with a trailing newline.
func encodeDoc(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkDoc compares a regenerated document with its reference byte for
// byte.
func (r *refs) checkDoc(name string, v any) error {
	got, err := encodeDoc(v)
	if err != nil {
		return fmt.Errorf("%s: encode: %w", name, err)
	}
	if want := r.golden[name]; !bytes.Equal(got, want) {
		return fmt.Errorf("%s: regenerated document differs from the golden reference near byte %d", name, firstDiff(got, want))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// selfTest proves the checks can fail. Each golden document must
// round-trip through this benchmark's document types byte for byte (so
// a regenerated document can match at all), and a one-ulp change to a
// reference value must fail both the document check and the answer
// check.
func (r *refs) selfTest() error {
	var t3 goldenTable3
	docs := map[string]any{
		"table3.json": &t3, "table4.json": &goldenTable4{}, "fig5a.json": &goldenFig5{},
		"fig5b.json": &goldenFig5{}, "fig6.json": &goldenFig6{}, "calib.json": &experiments.CalibResult{},
	}
	for _, name := range goldenNames {
		v := docs[name]
		if err := json.Unmarshal(r.golden[name], v); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := r.checkDoc(name, v); err != nil {
			return fmt.Errorf("round trip: %w", err)
		}
	}
	if len(t3.Cells) == 0 {
		return errors.New("table3.json has no cells")
	}
	t3.Cells[0].PT = nextUlp(t3.Cells[0].PT)
	if r.checkDoc("table3.json", &t3) == nil {
		return errors.New("document check accepted a one-ulp change to table3.json")
	}

	row := r.calib.Rows[0]
	exact := fame.PairResult{}
	exact.Thread[0].IPC, exact.Thread[1].IPC = row.SimulatedP, row.SimulatedS
	if err := checkExact(row, exact); err != nil {
		return fmt.Errorf("answer check rejected the reference itself: %w", err)
	}
	nudged := row
	nudged.SimulatedP = nextUlp(row.SimulatedP)
	if checkExact(nudged, exact) == nil {
		return errors.New("answer check accepted a one-ulp change to calib.json")
	}
	est := fame.PairResult{}
	est.Thread[0].IPC, est.Thread[1].IPC = row.PredictedP, row.PredictedS
	nudged = row
	nudged.ErrorBar = nextUlp(row.ErrorBar)
	if checkEstimate(nudged, est, row.ErrorBar) == nil {
		return errors.New("estimate check accepted a one-ulp change to an error bar")
	}
	return nil
}

func nextUlp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

// checkExact: an exact answer must equal the golden simulation.
func checkExact(row experiments.CalibRow, got fame.PairResult) error {
	if got.Thread[0].IPC != row.SimulatedP || got.Thread[1].IPC != row.SimulatedS {
		return fmt.Errorf("(%s,%s,%+d) exact answer (%v, %v) != golden simulation (%v, %v)",
			row.Primary, row.Secondary, row.Diff, got.Thread[0].IPC, got.Thread[1].IPC, row.SimulatedP, row.SimulatedS)
	}
	return nil
}

// checkEstimate: a tier-0 answer must equal the golden prediction and
// error bar, and the bar must cover its distance from the golden
// simulation.
func checkEstimate(row experiments.CalibRow, got fame.PairResult, bar float64) error {
	if got.Thread[0].IPC != row.PredictedP || got.Thread[1].IPC != row.PredictedS || bar != row.ErrorBar {
		return fmt.Errorf("(%s,%s,%+d) estimate (%v, %v ± %v) != golden prediction (%v, %v ± %v)",
			row.Primary, row.Secondary, row.Diff, got.Thread[0].IPC, got.Thread[1].IPC, bar,
			row.PredictedP, row.PredictedS, row.ErrorBar)
	}
	if e := estError(row, got); e > bar {
		return fmt.Errorf("(%s,%s,%+d) estimate is %v from the golden simulation, beyond its bar %v",
			row.Primary, row.Secondary, row.Diff, e, bar)
	}
	return nil
}

// estError is a prediction's worst per-thread distance from the golden
// simulation.
func estError(row experiments.CalibRow, pred fame.PairResult) float64 {
	return math.Max(math.Abs(pred.Thread[0].IPC-row.SimulatedP), math.Abs(pred.Thread[1].IPC-row.SimulatedS))
}

// Golden document types. They mirror the golden suite's document layout
// field for field; selfTest proves each committed file round-trips.

type goldenIPC struct {
	Name string
	IPC  float64
}

type goldenTable3 struct {
	Names     []string
	SingleIPC []goldenIPC
	Cells     []goldenTable3Cell
}

type goldenTable3Cell struct {
	Primary   string
	Secondary string
	PT        float64
	ST        float64
	TT        float64
}

type goldenTable4 struct {
	Rows           []experiments.Table4Row
	BestLabel      string
	BestGain       float64
	InversionWorse bool
}

type goldenFig5 struct {
	NameP, NameS string
	Points       []experiments.Fig5Point
	PeakGain     float64
}

type goldenFig6 struct {
	Names     []string
	FGLevels  []prio.Level
	SingleIPC []goldenIPC
	Cells     []goldenFig6Cell
}

type goldenFig6Cell struct {
	FG, BG string
	Level  prio.Level
	FGIPC  float64
	BGIPC  float64
}

func table3Doc(t3 experiments.Table3Result) goldenTable3 {
	g := goldenTable3{Names: t3.Names}
	for _, n := range t3.Names {
		g.SingleIPC = append(g.SingleIPC, goldenIPC{Name: n, IPC: t3.Matrix.SingleIPC[n]})
	}
	for _, p := range t3.Names {
		for _, s := range t3.Names {
			m := t3.Matrix.At(p, s, 0)
			g.Cells = append(g.Cells, goldenTable3Cell{Primary: p, Secondary: s, PT: m.Primary, ST: m.Secondary, TT: m.Total})
		}
	}
	return g
}

func table4Doc(t4 experiments.Table4Result) goldenTable4 {
	return goldenTable4{Rows: t4.Rows, BestLabel: t4.BestLabel, BestGain: t4.BestGain, InversionWorse: t4.InversionWorse}
}

func fig5Doc(r experiments.Fig5Result) goldenFig5 {
	return goldenFig5{NameP: r.NameP, NameS: r.NameS, Points: r.Points, PeakGain: r.PeakGain}
}

func fig6Doc(f6 experiments.Fig6Result) goldenFig6 {
	g := goldenFig6{Names: f6.Names, FGLevels: f6.FGLevels}
	for _, n := range f6.Names {
		g.SingleIPC = append(g.SingleIPC, goldenIPC{Name: n, IPC: f6.STIPC[n]})
	}
	for _, fg := range f6.Names {
		for _, bg := range f6.Names {
			for _, lv := range f6.FGLevels {
				c := f6.Cells[fg][bg][lv]
				g.Cells = append(g.Cells, goldenFig6Cell{FG: fg, BG: bg, Level: lv, FGIPC: c.FG, BGIPC: c.BG})
			}
		}
	}
	return g
}

// paperRelErr is the mean relative error of Table 3's single-thread IPCs
// and (4,4) primary IPCs against the paper's published values.
func paperRelErr(t3 goldenTable3) (float64, error) {
	var sum float64
	var n int
	for _, s := range t3.SingleIPC {
		want, ok := experiments.PaperTable3ST[s.Name]
		if !ok {
			return 0, fmt.Errorf("no paper single-thread IPC for %s", s.Name)
		}
		sum += math.Abs(s.IPC-want) / want
		n++
	}
	for _, c := range t3.Cells {
		want, ok := experiments.PaperTable3[c.Primary][c.Secondary]
		if !ok {
			return 0, fmt.Errorf("no paper cell for (%s,%s)", c.Primary, c.Secondary)
		}
		sum += math.Abs(c.PT-want.PT) / want.PT
		n++
	}
	return sum / float64(n), nil
}
