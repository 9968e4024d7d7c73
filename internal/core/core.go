// Package core assembles the chip-level simulator: a POWER5-like chip with
// two SMT cores sharing an L2/L3 hierarchy, plus convenience runners that
// place workloads on hardware threads the way the paper's methodology does
// (experiments run on the second core, with the first kept free of noise).
package core

import (
	"fmt"

	"power5prio/internal/isa"
	"power5prio/internal/mem"
	"power5prio/internal/pipeline"
	"power5prio/internal/prio"
)

// Thread base addresses keep co-scheduled workloads in disjoint address
// spaces, as separate processes would be.
const (
	BaseThread0 = uint64(0)
	BaseThread1 = uint64(1) << 42
)

// Config aggregates the chip configuration.
type Config struct {
	Mem  mem.Config
	Pipe pipeline.Config
	// ExperimentCore is the core used by the runners (the paper isolates
	// measurement on the second core).
	ExperimentCore int
}

// DefaultConfig returns the POWER5-like default chip.
func DefaultConfig() Config {
	return Config{
		Mem:            mem.DefaultConfig(),
		Pipe:           pipeline.DefaultConfig(),
		ExperimentCore: 1,
	}
}

// POWER6LikeConfig returns a sensitivity-analysis preset loosely modelled
// on the POWER6 (the paper notes it carries a similar priority mechanism):
// roughly twice the clock, so memory looks twice as far away, with a
// larger L2 and faster L3 attach. The priority conclusions should be
// robust under this preset; bench_test.go exercises it.
func POWER6LikeConfig() Config {
	cfg := DefaultConfig()
	cfg.Mem.L2 = mem.CacheConfig{SizeBytes: 4 << 20, Ways: 8, LineBytes: 128}
	cfg.Mem.LatL2 = 24
	cfg.Mem.LatL3 = 140
	cfg.Mem.LatMem = 460
	cfg.Mem.TLBWalkLat = 160
	cfg.Pipe.LatFPAdd = 7
	cfg.Pipe.LatFPMul = 7
	cfg.Pipe.MispredictPenalty = 10
	return cfg
}

// Validate checks the aggregate configuration.
func (c Config) Validate() error {
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if err := c.Pipe.Validate(); err != nil {
		return err
	}
	if c.ExperimentCore < 0 || c.ExperimentCore >= c.Mem.Cores {
		return fmt.Errorf("core: ExperimentCore %d out of range (%d cores)", c.ExperimentCore, c.Mem.Cores)
	}
	return nil
}

// Chip is one POWER5-like chip: cores plus the shared memory hierarchy.
type Chip struct {
	cfg   Config
	Hier  *mem.Hierarchy
	Cores []*pipeline.Core

	// skipDefer aims the next advance attempt at a known wake cycle
	// after a skippable-but-short window, so the analysis is not redone
	// on cycles the event wheel already proved uneventful. Which windows
	// get skipped never affects results, only wall-clock time.
	skipDefer uint64
}

// NewChip builds a chip. It panics on an invalid configuration.
func NewChip(cfg Config) *Chip {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := mem.NewHierarchy(cfg.Mem)
	ch := &Chip{cfg: cfg, Hier: h}
	for i := 0; i < cfg.Mem.Cores; i++ {
		ch.Cores = append(ch.Cores, pipeline.NewCore(cfg.Pipe, h, i))
	}
	return ch
}

// Config returns the chip configuration.
func (ch *Chip) Config() Config { return ch.cfg }

// ExperimentCore returns the core designated for measurements.
func (ch *Chip) ExperimentCore() *pipeline.Core { return ch.Cores[ch.cfg.ExperimentCore] }

// Step advances every core one cycle (cores are cycle-synchronous).
func (ch *Chip) Step() {
	for _, c := range ch.Cores {
		c.Step()
	}
}

// minSkip declines event windows shorter than this many cycles. By the
// time a window's length is known the analysis cost is already sunk, so
// the threshold is low: it only guards the closed-form jump itself.
// The decode-grant early bail inside pipeline.Core.NextEvent uses the
// same value to reject busy cores in O(1) before any queue walking. Any
// positive value is semantics-preserving.
const minSkip = 2

// AdvanceToNextEvent fast-forwards the whole chip to its next posted
// event: every core reports the earliest cycle at which its state can
// change (pipeline.Core.NextEvent — decode grants including the
// miss-throttle countdown, LMQ completions, dependency result times,
// pending-branch resolutions, redirect expiries, balance-window
// boundaries), and all cores jump to the minimum, never beyond bound
// cycles (measured on the cores' shared clock). It returns the number
// of cycles skipped, zero when any core has work due this cycle, the
// window is too short, or bound has been reached.
//
// There is no failed-attempt backoff: events are exact, so an attempt
// only comes back empty when work is genuinely due now — and busy
// cycles never reach the event computation at all, because a cycle
// that progressed (pipeline.Core.Progressed) cannot open a skippable
// window, which makes the busy path two flag loads. (The previous
// idle-only skipper needed an exponential backoff with a prime cap to
// avoid phase-locking against the power-of-two decode windows; exact
// events made it dead weight and it was removed. BenchmarkAdvanceBusy
// measures the busy-path cost against BenchmarkStepBusy.)
//
// Advancing is bit-identical to stepping: results, statistics and
// timeouts are unchanged, only wall-clock time is saved.
func (ch *Chip) AdvanceToNextEvent(bound uint64) uint64 {
	now := ch.Cores[0].Cycle()
	if bound <= now || now < ch.skipDefer {
		return 0
	}
	for _, c := range ch.Cores {
		if c.Progressed() {
			return 0
		}
	}
	wake := pipeline.NoEvent
	for _, c := range ch.Cores {
		w, ok := c.NextEvent(minSkip)
		if !ok {
			return 0
		}
		if w < wake {
			wake = w
		}
	}
	if wake > bound {
		wake = bound
	}
	if wake <= now || wake-now < minSkip {
		// Skippable but too short to jump: the wake cycle is when work
		// can resume, so aim the next attempt there.
		if wake > now {
			ch.skipDefer = wake
		}
		return 0
	}
	for _, c := range ch.Cores {
		c.FastForward(wake)
	}
	return wake - now
}

// PlacePair installs two kernels on the experiment core with the given
// priorities and software privilege. Either kernel may be nil to leave the
// corresponding hardware thread idle (single-thread runs). Streams marked
// Prewarm are pre-installed into the shared caches.
func (ch *Chip) PlacePair(ka, kb *isa.Kernel, pa, pb prio.Level, priv prio.Privilege) {
	c := ch.ExperimentCore()
	if ka != nil {
		c.SetWorkload(0, isa.NewStreamAt(ka, BaseThread0), priv)
	} else {
		c.SetWorkload(0, nil, priv)
		pa = prio.ThreadOff
	}
	if kb != nil {
		c.SetWorkload(1, isa.NewStreamAt(kb, BaseThread1), priv)
	} else {
		c.SetWorkload(1, nil, priv)
		pb = prio.ThreadOff
	}
	ch.prewarm(ka, kb)
	c.SetPriority(0, pa)
	c.SetPriority(1, pb)
}

// Place installs a kernel on an arbitrary (core, thread) context — used
// to model background noise on the non-experiment core, the situation the
// paper's methodology isolates away (Section 4.1). The address space
// offset keeps each context's footprint disjoint.
func (ch *Chip) Place(core, thread int, k *isa.Kernel, p prio.Level, priv prio.Privilege) {
	c := ch.Cores[core]
	base := uint64(core*2+thread+2) << 42
	c.SetWorkload(thread, isa.NewStreamAt(k, base), priv)
	c.SetPriority(thread, p)
	seen := map[uint64]bool{}
	for _, s := range k.Streams {
		if !s.Prewarm || seen[s.Base] {
			continue
		}
		seen[s.Base] = true
		for a := uint64(0); a < s.Footprint; a += isa.CacheLineSize {
			ch.Hier.Prefill(core, base+s.Base+a)
		}
	}
}

// prewarmRange is one contiguous footprint to pre-install.
type prewarmRange struct{ base, size uint64 }

// prewarm installs Prewarm-marked stream footprints of both kernels into
// the shared caches, interleaving lines across threads so neither starts
// with an LRU advantage when the combined footprints overflow a level.
func (ch *Chip) prewarm(ka, kb *isa.Kernel) {
	collect := func(k *isa.Kernel, base uint64) []prewarmRange {
		if k == nil {
			return nil
		}
		var out []prewarmRange
		seen := map[uint64]bool{}
		for _, s := range k.Streams {
			if !s.Prewarm || seen[s.Base] {
				continue
			}
			seen[s.Base] = true
			out = append(out, prewarmRange{base: base + s.Base, size: s.Footprint})
		}
		return out
	}
	fill := func(rs []prewarmRange, off uint64) bool {
		any := false
		for _, r := range rs {
			if off < r.size {
				ch.Hier.Prefill(ch.cfg.ExperimentCore, r.base+off)
				any = true
			}
		}
		return any
	}
	ra := collect(ka, BaseThread0)
	rb := collect(kb, BaseThread1)
	for off := uint64(0); ; off += isa.CacheLineSize {
		a := fill(ra, off)
		b := fill(rb, off)
		if !a && !b {
			return
		}
	}
}
