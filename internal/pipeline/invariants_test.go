package pipeline

import (
	"fmt"

	"power5prio/internal/isa"
	"power5prio/internal/prio"
)

// InvariantChecker verifies a core's structural invariants between
// cycles. It is test-only and reads the core's internals; the external
// test package drives it over chips built by internal/core.
//
// Check asserts:
//   - conservation: every dispatched instruction has retired, been
//     squashed or is still in flight, and each thread's in-flight groups
//     tile the sequence range [retired, decodeSeq) with no gap;
//   - capacity: GCT, issue-queue and LMQ occupancy stay within the
//     configuration, and every slot is either free or accounted;
//   - ownership: every queue entry belongs to an in-flight group of its
//     thread that covers its sequence number;
//   - scheduling: every entry is in exactly one state, ready lists are
//     in age order, timed entries sit in the right wheel bucket or on
//     the far list, and a waiting entry's pending count matches its live
//     registrations on unissued producers;
//   - decode arbitration: while both threads run at a fixed priority
//     pair, every window of R = prio.R(diff) consecutive grants gives
//     thread 0 exactly prio.Share(diff)·R of them (in the (1,1)
//     low-power mode grants alternate, a window of two).
type InvariantChecker struct {
	c    *Core
	base uint64 // DecodedInstrs not attributable to the current workloads

	last    uint64 // cycle of the previous check
	prios   [2]prio.Level
	active  [2]bool
	granted [2]uint64
	grants  []int8 // thread of each grant since the window last restarted

	state, regs []int8 // per queue slot scratch
	owner       []int8 // per GCT slot scratch: owning thread + 1
}

// NewInvariantChecker starts checking c from its current state, which
// must be freshly placed (no in-flight instructions).
func NewInvariantChecker(c *Core) *InvariantChecker {
	k := &InvariantChecker{c: c, state: make([]int8, len(c.ents)), regs: make([]int8, len(c.ents)),
		owner: make([]int8, len(c.gct))}
	k.base = c.cstats.DecodedInstrs
	for _, ts := range c.thr {
		k.base -= ts.stats.Instructions + ts.stats.BranchFlushes
	}
	k.restart()
	return k
}

// restart begins a new decode-grant window at the core's current state.
func (k *InvariantChecker) restart() {
	c := k.c
	k.last = c.cycle
	k.grants = k.grants[:0]
	for t, ts := range c.thr {
		k.prios[t] = c.alloc.Priority(t)
		k.active[t] = c.active[t]
		k.granted[t] = ts.stats.DecodeGranted
	}
}

// Check verifies every invariant and returns the first violation.
func (k *InvariantChecker) Check() error {
	c := k.c
	if err := k.conservation(); err != nil {
		return fmt.Errorf("cycle %d: %w", c.cycle, err)
	}
	if err := k.queues(); err != nil {
		return fmt.Errorf("cycle %d: %w", c.cycle, err)
	}
	if err := k.grantWindow(); err != nil {
		return fmt.Errorf("cycle %d: %w", c.cycle, err)
	}
	return nil
}

func (k *InvariantChecker) conservation() error {
	c := k.c
	if u := c.gctUsed(); u > c.cfg.GCTEntries || u+len(c.gctFree) != c.cfg.GCTEntries {
		return fmt.Errorf("GCT: %d used + %d free, capacity %d", u, len(c.gctFree), c.cfg.GCTEntries)
	}
	accounted := k.base
	for t, ts := range c.thr {
		accounted += ts.stats.Instructions + ts.stats.BranchFlushes
		next := ts.stats.Instructions
		for j := 0; j < ts.gLen; j++ {
			g := &c.gct[ts.group(j)]
			if g.n <= 0 || g.firstSeq != next || g.issuedCnt > g.n {
				return fmt.Errorf("thread %d group %d: seq %d n %d issued %d, want first seq %d",
					t, j, g.firstSeq, g.n, g.issuedCnt, next)
			}
			next += uint64(g.n)
			accounted += uint64(g.n)
		}
		if next != ts.decodeSeq {
			return fmt.Errorf("thread %d: in-flight groups end at seq %d, decode is at %d", t, next, ts.decodeSeq)
		}
		if ts.decodeSeq > ts.fetchSeq || ts.fetchSeq > ts.genSeq ||
			ts.fetched() > c.cfg.FetchBufCap || ts.genSeq-ts.stats.Instructions > uint64(len(ts.replay)) {
			return fmt.Errorf("thread %d: retired %d decode %d fetch %d generated %d (buffer %d, ring %d)",
				t, ts.stats.Instructions, ts.decodeSeq, ts.fetchSeq, ts.genSeq, c.cfg.FetchBufCap, len(ts.replay))
		}
		if ts.lmqActive > c.cfg.LMQPerThread || ts.lmqMisses > ts.lmqActive {
			return fmt.Errorf("thread %d: LMQ %d active (%d misses), capacity %d",
				t, ts.lmqActive, ts.lmqMisses, c.cfg.LMQPerThread)
		}
	}
	if accounted != c.cstats.DecodedInstrs {
		return fmt.Errorf("conservation: %d dispatched, %d retired+squashed+in flight",
			c.cstats.DecodedInstrs, accounted)
	}
	return nil
}

func (k *InvariantChecker) queues() error {
	c := k.c
	const (
		waiting = iota + 1
		ready
		timed
	)
	owner := k.owner
	clear(owner)
	for t, ts := range c.thr {
		for j := 0; j < ts.gLen; j++ {
			owner[ts.group(j)] = int8(t) + 1
		}
	}
	state := k.state
	clear(state)
	var live [isa.UnitCount]int
	for s := range c.ents {
		e := &c.ents[s]
		if e.age == 0 {
			continue
		}
		live[e.unit]++
		g := &c.gct[e.gi]
		if owner[e.gi] != e.thread+1 || e.seq < g.firstSeq || e.seq >= g.firstSeq+uint64(g.n) {
			return fmt.Errorf("queue entry seq %d (thread %d) is outside its group", e.seq, e.thread)
		}
		if e.pending > 0 {
			state[s] = waiting
		}
	}
	free := len(c.entFree)
	for u := range live {
		if live[u] != c.qlen[u] || live[u] > c.cfg.QueueCap[u] {
			return fmt.Errorf("unit %v: %d live entries, occupancy %d, capacity %d",
				isa.Unit(u), live[u], c.qlen[u], c.cfg.QueueCap[u])
		}
		free += live[u]
	}
	if free != len(c.ents) {
		return fmt.Errorf("queue slots: %d live+free, %d total", free, len(c.ents))
	}
	mark := func(s int32, st int8, what string) error {
		e := &c.ents[s]
		if e.age == 0 || state[s] != 0 || e.pending != 0 {
			return fmt.Errorf("%s entry seq %d: age %d pending %d, already %d", what, e.seq, e.age, e.pending, state[s])
		}
		state[s] = st
		return nil
	}
	for u, l := range c.ready {
		for i, s := range l {
			e := &c.ents[s]
			if int(e.unit) != u || e.readyAt > c.cycle || (i > 0 && c.ents[l[i-1]].age >= e.age) {
				return fmt.Errorf("ready list %v: entry %d (seq %d, ready %d) out of order or not due", isa.Unit(u), i, e.seq, e.readyAt)
			}
			if err := mark(s, ready, "ready"); err != nil {
				return err
			}
		}
	}
	for b := range c.wheel {
		if (len(c.wheel[b]) > 0) != (c.wheelBits&(1<<b) != 0) {
			return fmt.Errorf("wheel bucket %d: %d entries, bit %v", b, len(c.wheel[b]), c.wheelBits&(1<<b) != 0)
		}
		for _, s := range c.wheel[b] {
			at := c.ents[s].readyAt
			if at&(wheelSize-1) != uint64(b) || at < c.cycle || at >= c.cycle+wheelSize {
				return fmt.Errorf("wheel bucket %d holds an entry due at %d", b, at)
			}
			if err := mark(s, timed, "wheel"); err != nil {
				return err
			}
		}
	}
	farMin := NoEvent
	for i, x := range c.far {
		farMin = min(farMin, x.at)
		if x.at != c.ents[x.slot].readyAt || x.at < c.cycle {
			return fmt.Errorf("far list item %d (due %d) misplaced", i, x.at)
		}
		if err := mark(x.slot, timed, "far"); err != nil {
			return err
		}
	}
	if farMin != c.farMin {
		return fmt.Errorf("far list minimum %d, cached %d", farMin, c.farMin)
	}
	// Each waiting entry's pending count equals its live registrations,
	// all on producers that have not issued.
	regs := k.regs
	clear(regs)
	for _, ts := range c.thr {
		for seq := ts.stats.Instructions; seq < ts.decodeSeq; seq++ {
			for _, w := range ts.waiters[seq&ts.mask] {
				if c.ents[w.slot].age != w.age {
					continue
				}
				if ts.resultAt[seq&(resultRing-1)] != notDone {
					return fmt.Errorf("entry seq %d waits on issued producer seq %d", c.ents[w.slot].seq, seq)
				}
				regs[w.slot]++
			}
		}
	}
	for s := range c.ents {
		if e := &c.ents[s]; e.age != 0 && regs[s] != e.pending {
			return fmt.Errorf("entry seq %d: pending %d, %d live registrations", e.seq, e.pending, regs[s])
		}
	}
	return nil
}

func (k *InvariantChecker) grantWindow() error {
	c := k.c
	if c.cycle != k.last+1 || c.alloc.Priority(0) != k.prios[0] || c.alloc.Priority(1) != k.prios[1] ||
		c.active != k.active {
		// A skipped span or a priority change restarts the window.
		k.restart()
		return nil
	}
	k.last = c.cycle
	var got [2]uint64
	for t, ts := range c.thr {
		got[t] = ts.stats.DecodeGranted - k.granted[t]
		k.granted[t] = ts.stats.DecodeGranted
	}
	if !k.active[0] || !k.active[1] {
		return nil
	}
	lowPower := k.prios[0] == prio.VeryLow && k.prios[1] == prio.VeryLow
	switch n := got[0] + got[1]; {
	case n == 1:
		k.grants = append(k.grants, int8(got[1]))
	case n == 0 && lowPower:
		return nil
	default:
		return fmt.Errorf("decode granted (%d,%d) slots in one cycle", got[0], got[1])
	}
	diff := int(k.prios[0]) - int(k.prios[1])
	r := prio.R(diff)
	if lowPower {
		r = 2
	}
	if len(k.grants) < r {
		return nil
	}
	zero := 0
	for _, t := range k.grants[len(k.grants)-r:] {
		if t == 0 {
			zero++
		}
	}
	if want := prio.Share(diff) * float64(r); float64(zero) != want {
		return fmt.Errorf("priorities %v/%v: thread 0 got %d of the last %d grants, want %v",
			k.prios[0], k.prios[1], zero, r, want)
	}
	if len(k.grants) > 4*r {
		k.grants = append(k.grants[:0], k.grants[len(k.grants)-r:]...)
	}
	return nil
}
