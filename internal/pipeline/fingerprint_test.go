package pipeline_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"power5prio/internal/balance"
	"power5prio/internal/core"
	"power5prio/internal/isa"
	"power5prio/internal/microbench"
	"power5prio/internal/pipeline"
	"power5prio/internal/prio"
)

// updateFingerprint rewrites testdata/fingerprint.json from the current
// pipeline:
//
//	go test ./internal/pipeline -run TestCycleFingerprint -update
//
// A refresh changes what "bit-identical" means for every later pipeline
// change, so it follows the golden-refresh process in CONTRIBUTING.md.
var updateFingerprint = flag.Bool("update", false, "rewrite testdata/fingerprint.json from the current pipeline")

const (
	// fingerprintCycles is how long each input is stepped.
	fingerprintCycles = 50_000
	// fingerprintEvery is the checkpoint interval: the statistics are
	// folded into the running hash every this many cycles.
	fingerprintEvery = 1_000
	// invariantCycles is how many leading cycles of each input run
	// pipeline.InvariantChecker after every Step; the check costs
	// several Steps, so it covers the warm-up and first steady phase.
	invariantCycles = 5_000
	fingerprintFile = "testdata/fingerprint.json"
)

// fpInput is one fixed simulation input: a chip configuration and a
// kernel pair at a priority pair.
type fpInput struct {
	name   string
	cfg    core.Config
	a, b   string
	pa, pb prio.Level
}

// build places the input on a fresh chip. Kernels are rebuilt per chip:
// pattern closures carry state and must never be shared between chips.
func (in fpInput) build(tb testing.TB) *core.Chip {
	tb.Helper()
	ch := core.NewChip(in.cfg)
	ch.PlacePair(fpKernel(tb, in.a), fpKernel(tb, in.b), in.pa, in.pb, prio.Supervisor)
	return ch
}

func fpKernel(tb testing.TB, name string) *isa.Kernel {
	tb.Helper()
	k, err := microbench.BuildWith(name, microbench.Params{Iters: 8})
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// fpPrios are the priority pairs every kernel pair runs at: equal,
// both skews, the (1,1) low-power mode and the sibling switched off.
var fpPrios = [][2]prio.Level{
	{prio.Medium, prio.Medium},
	{prio.High, prio.Low},
	{prio.Low, prio.High},
	{prio.VeryLow, prio.VeryLow},
	{prio.Medium, prio.ThreadOff},
}

// fingerprintInputs lists the pinned inputs: every unordered microbench
// pair (self-pairs included) on DefaultConfig, the presented benchmarks'
// pairs on POWER6LikeConfig, each at every fpPrios pair, and the seeded
// samples of internal/fame's TestLockstepFuzz (same generator, same seed).
func fingerprintInputs() []fpInput {
	var ins []fpInput
	pairs := func(label string, cfg core.Config, names []string) {
		for i, a := range names {
			for _, b := range names[i:] {
				for _, p := range fpPrios {
					ins = append(ins, fpInput{
						name: fmt.Sprintf("%s/%s+%s/%d-%d", label, a, b, p[0], p[1]),
						cfg:  cfg, a: a, b: b, pa: p[0], pb: p[1],
					})
				}
			}
		}
	}
	pairs("default", core.DefaultConfig(), microbench.Names())
	pairs("power6", core.POWER6LikeConfig(), microbench.Presented())

	// Mirror of TestLockstepFuzz's sampler (internal/fame/lockstep_test.go).
	rng := rand.New(rand.NewSource(0x5005))
	names := microbench.Names()
	for s := 0; s < 14; s++ {
		cfg := core.DefaultConfig()
		cfg.Pipe.Balance = balance.Config{
			Mode:         balance.Mode(rng.Intn(3)),
			GCTHigh:      8 + rng.Intn(9),
			MissHigh:     2 + rng.Intn(7),
			ThrottleRate: 2 + rng.Intn(11),
		}
		cfg.Pipe.Balance.GCTLow = 4 + rng.Intn(cfg.Pipe.Balance.GCTHigh-3)
		cfg.Pipe.GCTEntries = 12 + rng.Intn(13)
		cfg.Pipe.LMQPerThread = 2 + rng.Intn(7)
		cfg.Pipe.MispredictPenalty = uint64(3 + rng.Intn(10))
		a := names[rng.Intn(len(names))]
		b := names[rng.Intn(len(names))]
		pa := prio.Level(1 + rng.Intn(7))
		pb := prio.Level(1 + rng.Intn(7))
		if rng.Intn(8) == 0 {
			pb = prio.ThreadOff
		}
		ins = append(ins, fpInput{
			name: fmt.Sprintf("fuzz%02d/%s+%s/%d-%d", s, a, b, pa, pb),
			cfg:  cfg, a: a, b: b, pa: pa, pb: pb,
		})
	}
	return ins
}

// foldStats mixes the experiment core's cycle, per-thread and core
// statistics into h.
func foldStats(h hash.Hash64, ch *core.Chip) {
	c := ch.ExperimentCore()
	fmt.Fprintf(h, "%d|%v|%v|%v;", c.Cycle(), c.Stats(0), c.Stats(1), c.CoreStats())
}

// fingerprint steps the input for fingerprintCycles cycles and returns
// the running hash at every checkpoint, 8 hex digits each. The hash is
// chained, so a divergence shows at its checkpoint and every later one.
// The experiment core's invariants are checked after each of the first
// invariantCycles Steps.
func fingerprint(tb testing.TB, in fpInput) string {
	ch := in.build(tb)
	inv := pipeline.NewInvariantChecker(ch.ExperimentCore())
	h := fnv.New64a()
	var sb strings.Builder
	for n := 1; n <= fingerprintCycles; n++ {
		ch.Step()
		if n <= invariantCycles {
			if err := inv.Check(); err != nil {
				tb.Fatalf("%s: invariant violated: %v", in.name, err)
			}
		}
		if n%fingerprintEvery == 0 {
			foldStats(h, ch)
			fmt.Fprintf(&sb, "%08x", uint32(h.Sum64()))
		}
	}
	return sb.String()
}

// TestCycleFingerprint pins pipeline.Core.Step cycle by cycle on a fixed
// input set. The goldens pin only end-of-run IPCs at one fidelity, and
// the lockstep suites compare the event wheel against the same Step, so
// neither catches a changed Step; this does, and it names the first
// checkpoint (in thousands of cycles) where an input diverged. It also
// runs pipeline.InvariantChecker over the same inputs.
func TestCycleFingerprint(t *testing.T) {
	ins := fingerprintInputs()
	got := make(map[string]string, len(ins))
	res := make([]string, len(ins))
	t.Run("inputs", func(t *testing.T) {
		for i, in := range ins {
			t.Run(in.name, func(t *testing.T) {
				t.Parallel()
				res[i] = fingerprint(t, in)
			})
		}
	})
	for i, in := range ins {
		got[in.name] = res[i]
	}
	if *updateFingerprint {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatalf("missing %s (generate with -update): %v", fingerprintFile, err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d inputs, the test runs %d", fingerprintFile, len(want), len(got))
	}
	for _, in := range ins {
		w, g := want[in.name], got[in.name]
		if w == g {
			continue
		}
		k := 0
		for k+8 <= len(w) && k+8 <= len(g) && w[k:k+8] == g[k:k+8] {
			k += 8
		}
		t.Errorf("%s: diverged by cycle %d", in.name, (k/8+1)*fingerprintEvery)
	}
}
