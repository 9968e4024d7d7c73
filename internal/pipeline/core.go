package pipeline

import (
	"fmt"
	"math/bits"

	"power5prio/internal/balance"
	"power5prio/internal/branch"
	"power5prio/internal/isa"
	"power5prio/internal/mem"
	"power5prio/internal/prio"
)

const (
	// notDone marks an in-flight instruction whose result is not ready.
	notDone = ^uint64(0)
	// NoEvent is the IdleWake sentinel for a core with no pending
	// time-indexed event (an empty core is idle forever on its own).
	NoEvent = ^uint64(0)
	// resultRing must exceed the longest in-flight window (the replay
	// ring) plus the longest dependency distance a kernel can carry
	// (bodies are a few hundred instructions).
	resultRing = 4096
	// wheelSize is the timing-wheel span in cycles: one bucket per cycle,
	// tracked by the bits of one word.
	wheelSize = 64
)

// group is one dispatch group in the GCT. Its instructions are the
// owning thread's replay-ring window [firstSeq, firstSeq+n), which stays
// intact while the group is in flight.
type group struct {
	firstSeq uint64
	// issuedCnt and doneAt are maintained at issue time so retirement
	// eligibility is an O(1) check instead of a per-cycle slot scan:
	// once issuedCnt == n, doneAt is the max result time of the group.
	doneAt    uint64
	n         int
	issuedCnt int
	// marked is set when an instruction of the group carries an
	// iteration or repetition mark or sets a priority; retiring an
	// unmarked group only counts its instructions.
	marked bool
}

// qent is one issue-queue entry. It holds a fixed slot of Core.ents from
// dispatch until it issues or is squashed, and is in exactly one state:
// waiting on pending unissued producers (they wake it when they issue),
// timed (every producer issued, readyAt in the future; on the timing
// wheel or the far list)
// or ready (on its unit's age-ordered ready list).
type qent struct {
	age     uint64 // core-wide dispatch order; 0 marks a free slot
	seq     uint64
	addr    uint64
	readyAt uint64 // max result time of the producers issued so far
	gi      int32  // GCT slot of the owning group
	pending int8   // producers not yet issued
	op      isa.Op
	unit    isa.Unit
	thread  int8
	mispred bool
}

// waiter is a consumer registered on an unissued producer. The age
// check drops registrations whose consumer was squashed meanwhile.
type waiter struct {
	slot int32
	age  uint64
}

// timedEnt is a far-list item: queue slot becomes ready at cycle at.
type timedEnt struct {
	at   uint64
	slot int32
}

// lmqEntry is one outstanding load miss.
type lmqEntry struct {
	seq   uint64
	done  uint64
	level mem.HitLevel
}

// brEvent is a pending branch resolution.
type brEvent struct {
	seq uint64
	at  uint64
}

// threadState is the per-hardware-thread context. The per-cycle scalars
// come first and the sequence-indexed rings last, so the hot fields share
// cache lines.
type threadState struct {
	id      int
	stream  *isa.Stream
	priv    prio.Privilege
	running bool

	genSeq    uint64 // next seq to generate from the stream
	fetchSeq  uint64 // next seq to insert into the fetch buffer
	decodeSeq uint64 // oldest fetch-buffer seq (next to decode)

	// groups is a ring of GCT slots of the in-flight groups, oldest at
	// gHead; gLen is the thread's GCT occupancy.
	groups      []int32
	gHead, gLen int

	// Load-miss queue. The slice holds the in-flight entries (needed for
	// squash filtering); the occupancy counters are maintained
	// incrementally at insert, expiry and squash so the per-cycle cost is
	// one compare against lmqNext instead of three slice scans.
	lmq       []lmqEntry
	lmqActive int    // entries with done > now
	lmqMisses int    // active entries that missed to L2 or beyond
	lmqNext   uint64 // earliest completion among active entries (NoEvent if none)

	pendBr []brEvent

	blockedUntil uint64 // decode blocked until this cycle (redirect)

	stats ThreadStats

	// Instruction supply: every generated instruction lives in the replay
	// ring, indexed by sequence number, until it retires. The fetch buffer
	// is the ring window [decodeSeq, fetchSeq) and a dispatch group the
	// window [firstSeq, firstSeq+n), so instructions are never copied
	// after generation; squashes re-fetch from the ring without rewinding
	// the generator.
	// The ring's power-of-two size covers the longest possible window,
	// GCTEntries*GroupSize in flight plus a full fetch buffer; mask is
	// that size minus one.
	replay []isa.Dyn
	mask   uint64
	// waiters[seq&mask] lists the queue entries waiting on the unissued
	// in-flight instruction seq.
	waiters [][]waiter
	// resultAt[seq%resultRing] = cycle the result is available, or notDone.
	resultAt [resultRing]uint64
}

// gctHeld returns the number of GCT entries the thread occupies.
func (t *threadState) gctHeld() int { return t.gLen }

// group returns the GCT slot of the thread's k-th oldest in-flight group.
func (t *threadState) group(k int) int32 {
	return t.groups[(t.gHead+k)&(len(t.groups)-1)]
}

// instr returns the replay-ring slot of instruction seq.
func (t *threadState) instr(seq uint64) *isa.Dyn { return &t.replay[seq&t.mask] }

// fetched returns the fetch-buffer occupancy.
func (t *threadState) fetched() int { return int(t.fetchSeq - t.decodeSeq) }

// lmqTick expires completed miss entries once the earliest completion
// time is due. Between expiries the counters are exact by construction,
// so the common case is a single compare.
func (t *threadState) lmqTick(now uint64) {
	if now < t.lmqNext {
		return
	}
	t.lmqRecount(now)
}

// lmqRecount rebuilds the occupancy counters, dropping expired entries.
func (t *threadState) lmqRecount(now uint64) {
	dst := t.lmq[:0]
	t.lmqActive, t.lmqMisses = 0, 0
	t.lmqNext = NoEvent
	for _, e := range t.lmq {
		if e.done <= now {
			continue
		}
		dst = append(dst, e)
		t.lmqActive++
		if e.level >= mem.HitL2 {
			t.lmqMisses++
		}
		if e.done < t.lmqNext {
			t.lmqNext = e.done
		}
	}
	t.lmq = dst
}

// lmqInsert records a newly issued missing load (done is always in the
// future at insert time).
func (t *threadState) lmqInsert(e lmqEntry) {
	t.lmq = append(t.lmq, e)
	t.lmqActive++
	if e.level >= mem.HitL2 {
		t.lmqMisses++
	}
	if e.done < t.lmqNext {
		t.lmqNext = e.done
	}
}

// lmqSquash cancels entries younger than seq and recounts.
func (t *threadState) lmqSquash(seq, now uint64) {
	dst := t.lmq[:0]
	for _, e := range t.lmq {
		if e.seq <= seq {
			dst = append(dst, e)
		}
	}
	t.lmq = dst
	t.lmqRecount(now)
}

// Core is one POWER5-like SMT core.
type Core struct {
	cfg   Config
	id    int
	hier  *mem.Hierarchy
	pred  *branch.Predictor
	alloc *prio.Allocator
	mon   *balance.Monitor
	thr   [2]*threadState
	// active[t] caches whether thread t participates in execution (has a
	// workload and is not switched off); it changes only when a workload
	// or a priority does.
	active [2]bool

	// Issue queues: fixed entry slots shared by all unit classes, with
	// per-unit occupancy and age-ordered ready lists. Timed entries wait
	// on a timing wheel when due within wheelSize cycles (wheelBits marks
	// the non-empty buckets) and on the far list otherwise; farMin is the
	// far list's earliest due cycle. Per-cycle issue work is proportional
	// to the entries that are due, not to queue occupancy.
	ents      []qent
	entFree   []int32
	qlen      [isa.UnitCount]int
	ready     [isa.UnitCount][]int32
	wheel     [wheelSize][]int32
	wheelBits uint64
	far       []timedEnt
	farMin    uint64
	nextAge   uint64

	// GCT: fixed group slots and a free stack of their indices.
	gct     []group
	gctFree []int32

	cycle  uint64
	cstats CoreStats
	// progressed records whether the last Step changed architectural or
	// statistical state beyond the closed-form bookkeeping FastForward
	// applies (a decode, issue, retire, branch resolution, LMQ completion
	// or balance flush; fetch refills are excluded — FastForward replays
	// them). Inside a skippable window no cycle progresses, so a cycle
	// that did progress cannot be the start of one, and the chip uses the
	// flag to bypass the event-wheel probe entirely on busy cycles.
	progressed bool
}

// NewCore builds a core attached to the given memory hierarchy. It panics
// on an invalid configuration.
func NewCore(cfg Config, hier *mem.Hierarchy, id int) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if hier == nil {
		panic("pipeline: nil memory hierarchy")
	}
	if id < 0 || id >= hier.Config().Cores {
		panic(fmt.Sprintf("pipeline: core id %d out of range", id))
	}
	c := &Core{
		cfg:     cfg,
		id:      id,
		hier:    hier,
		pred:    branch.New(cfg.BHTBits),
		alloc:   prio.NewAllocator(prio.Medium, prio.Medium),
		mon:     balance.NewMonitor(cfg.Balance),
		farMin:  NoEvent,
		nextAge: 1,
	}
	n := 0
	for _, q := range cfg.QueueCap {
		n += q
	}
	c.ents = make([]qent, n)
	for s := n - 1; s >= 0; s-- {
		c.entFree = append(c.entFree, int32(s))
	}
	c.gct = make([]group, cfg.GCTEntries)
	for g := len(c.gct) - 1; g >= 0; g-- {
		c.gctFree = append(c.gctFree, int32(g))
	}
	for i := range c.thr {
		c.thr[i] = new(threadState)
		c.resetThread(i, nil, 0)
	}
	c.syncMemWeights()
	return c
}

// resetThread clears thread t's context in place and installs s.
func (c *Core) resetThread(t int, s *isa.Stream, priv prio.Privilege) {
	ts := c.thr[t]
	groups, replay, waiters := ts.groups, ts.replay, ts.waiters
	if groups == nil {
		groups = make([]int32, pow2(c.cfg.GCTEntries))
		n := pow2(c.cfg.GCTEntries*c.cfg.GroupSize + c.cfg.FetchBufCap)
		replay = make([]isa.Dyn, n)
		waiters = make([][]waiter, n)
	}
	for i := range waiters {
		waiters[i] = waiters[i][:0]
	}
	*ts = threadState{id: t, stream: s, priv: priv, running: s != nil, lmqNext: NoEvent,
		groups: groups, replay: replay, mask: uint64(len(replay) - 1), waiters: waiters}
	for i := range ts.resultAt {
		ts.resultAt[i] = notDone
	}
}

// pow2 returns the smallest power of two >= n.
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// syncMemWeights propagates the current decode shares to the memory
// hierarchy's per-thread DRAM arbitration weights (the POWER5 nest honours
// thread priority at resource arbitration points).
func (c *Core) syncMemWeights() {
	d := int(c.alloc.Priority(0)) - int(c.alloc.Priority(1))
	w0 := prio.Share(d)
	c.hier.SetMemWeight(c.id, 0, w0)
	c.hier.SetMemWeight(c.id, 1, 1-w0)
}

// refreshActive recomputes the cached per-thread active state after a
// workload or priority change.
func (c *Core) refreshActive() {
	for t, ts := range c.thr {
		c.active[t] = ts.running && c.alloc.Priority(t) != prio.ThreadOff
	}
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Cycle returns the current cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// SetWorkload installs a workload stream on hardware thread t with the
// given software privilege (which governs in-stream priority changes).
// Passing a nil stream deactivates the thread.
func (c *Core) SetWorkload(t int, s *isa.Stream, priv prio.Privilege) {
	ts := c.thr[t]
	// Release the previous workload's GCT groups and queue entries.
	for k := 0; k < ts.gLen; k++ {
		c.gctFree = append(c.gctFree, ts.group(k))
	}
	c.dropEntries(func(e *qent) bool { return int(e.thread) == t })
	c.resetThread(t, s, priv)
	c.refreshActive()
}

// SetPriority sets thread t's priority directly (harness-level control,
// equivalent to hypervisor action). In-stream or-nops go through privilege
// checking instead.
func (c *Core) SetPriority(t int, l prio.Level) {
	c.alloc.Set(t, l)
	c.syncMemWeights()
	c.refreshActive()
}

// Priority returns thread t's current priority.
func (c *Core) Priority(t int) prio.Level { return c.alloc.Priority(t) }

// Stats returns a snapshot of thread t's counters.
func (c *Core) Stats(t int) ThreadStats { return c.thr[t].stats }

// Running reports whether thread t has an active workload.
func (c *Core) Running(t int) bool { return c.thr[t].running }

// Step advances the core by one cycle.
func (c *Core) Step() {
	now := c.cycle
	t0, t1 := c.thr[0], c.thr[1]
	if c.quiet() {
		// Nothing in flight and nothing to fetch: the decode-slot
		// allocator is the only state that moves.
		c.alloc.Next()
		c.progressed = false
		c.cstats.Cycles++
		c.cycle++
		return
	}
	lmq0, lmq1 := t0.lmqActive, t1.lmqActive
	t0.lmqTick(now)
	t1.lmqTick(now)
	c.progressed = t0.lmqActive != lmq0 || t1.lmqActive != lmq1
	c.resolveBranches(now)
	c.retire(now)
	c.issue(now)
	stall := c.balanceStep()
	c.decode(now, stall)
	c.fetch(now)
	c.cstats.Cycles++
	c.cstats.GCTOccupSum += uint64(c.gctUsed())
	c.cycle++
}

// quiet reports whether the core has no active thread and nothing in
// flight, so a cycle only advances the decode-slot allocator.
func (c *Core) quiet() bool {
	t0, t1 := c.thr[0], c.thr[1]
	return !c.active[0] && !c.active[1] && t0.gLen+t1.gLen == 0 &&
		len(t0.pendBr)+len(t1.pendBr) == 0 && t0.lmqNext == NoEvent && t1.lmqNext == NoEvent
}

// CoreStats returns a snapshot of whole-core activity counters.
func (c *Core) CoreStats() CoreStats { return c.cstats }

// Repetitions returns thread t's completed-repetition counter without
// copying the full ThreadStats snapshot; measurement loops poll it every
// cycle to decide when convergence needs re-checking.
func (c *Core) Repetitions(t int) uint64 { return c.thr[t].stats.Repetitions }

// Run advances the core n cycles.
func (c *Core) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Step()
	}
}

// NextEvent is the core's contribution to the chip event wheel: it
// decides whether the span from the current cycle to the returned wake
// is skippable — stepping through it cannot change architectural or
// statistical state beyond the closed-form bookkeeping FastForward
// applies — and posts the earliest future cycle at which a state change
// may occur. The skip is legal (bit-identical to stepping) for any
// target up to that wake.
//
// Every component posts its next state-change cycle, and the wake is
// their minimum:
//   - pending branch resolutions, LMQ completions, the earliest readyAt
//     of the timed entries, head-group completion times and redirect
//     blockedUntil expiries (exact, time-indexed events);
//   - each thread's next effective decode slot: its next allocator grant
//     or — while the balance monitor miss-throttles its decode — the
//     first grant aligned with the throttle-free cycles of the countdown
//     (prio.Allocator.NextGrantAligned), which is how the wheel advances
//     even while a thread is "busy" in the throttled sense;
//   - nothing for fetch: refills are replayed verbatim by FastForward,
//     so an in-progress refill does not veto the skip.
//
// A span is skippable when no event is due now — no branch resolution or
// retirable head group, no issuable ready entry (a ready load may wait on
// a full LMQ; waiting entries wake only when a producer issues), no
// thread that can decode before the wake — and the balance monitor is
// transition-free for both threads (balance.Monitor.CanSkip), so its
// evolution is closed-form. minAhead declines windows shorter than that
// many cycles (the jump is not worth it); a core with no pending event at
// all reports ok with wake == NoEvent, leaving the bound to the caller.
func (c *Core) NextEvent(minAhead uint64) (wake uint64, ok bool) {
	now := c.cycle
	c.thr[0].lmqTick(now)
	c.thr[1].lmqTick(now)
	wake = NoEvent

	// Cheap phase: decode and monitor conditions — O(1) per thread, so
	// busy cores bail before any queue inspection.
	for i, ts := range c.thr {
		if !c.active[i] {
			continue
		}
		if !c.mon.CanSkip(i, ts.gctHeld(), c.active[1-i]) {
			return 0, false
		}
		switch {
		case c.mon.Stalled(i):
			// Decode stalled by the balancer; CanSkip above proved the
			// episode persists while GCT occupancy is unchanged.
		case ts.blockedUntil > now:
			// Redirect penalty; its expiry bounds the wake below.
		case c.gctUsed() >= c.cfg.GCTEntries:
			// Dispatch blocked until a retire, and no retire is due.
		case ts.fetched() > 0 && c.queueFull(isa.UnitOf(ts.instr(ts.decodeSeq).Op)):
			// The next instruction's issue queue is full and cannot
			// drain (no entry issues during the window).
		default:
			// The thread decodes at its next effective decode slot,
			// which ends the skip: the next grant or, while the decode
			// is miss-throttled, the first grant on a throttle-free
			// cycle (the grants in between are granted-and-stalled,
			// which FastForward accounts in closed form).
			var d uint64
			if off, period, throttled := c.mon.ThrottleWindow(i, ts.lmqMisses, c.active[1-i]); throttled {
				d = c.alloc.NextGrantAligned(i, off, period)
			} else {
				d = c.alloc.NextGrantDelta(i)
			}
			if d < minAhead {
				return 0, false
			}
			if d != prio.NeverGranted && now+d < wake {
				wake = now + d
			}
		}
	}

	// Event phase: every time-indexed state change bounds the wake, and
	// anything actionable right now vetoes the skip.
	for _, ts := range c.thr {
		for _, ev := range ts.pendBr {
			if ev.at <= now {
				return 0, false // due branch resolution
			}
			if ev.at < wake {
				wake = ev.at
			}
		}
		if ts.lmqNext < wake {
			wake = ts.lmqNext
		}
		if ts.blockedUntil > now && ts.blockedUntil < wake {
			wake = ts.blockedUntil
		}
		if ts.gLen > 0 {
			g := &c.gct[ts.group(0)]
			if g.issuedCnt == g.n {
				if g.doneAt <= now {
					return 0, false // retirable now
				}
				if g.doneAt < wake {
					wake = g.doneAt
				}
			}
		}
	}
	c.promote(now)
	for u := range c.ready {
		for _, s := range c.ready[u] {
			if !c.lmqBlocked(&c.ents[s]) {
				return 0, false // issuable now
			}
			// LMQ-blocked; lmqNext already bounds the wake.
		}
	}
	if at := c.nextTimed(now); at < wake {
		wake = at
	}
	if wake != NoEvent && wake < now+minAhead {
		return 0, false
	}
	return wake, true
}

// queueFull reports whether unit u's issue queue is at capacity.
func (c *Core) queueFull(u isa.Unit) bool { return c.qlen[u] >= c.cfg.QueueCap[u] }

// lmqBlocked reports whether a ready entry is a load that may miss while
// its thread's LMQ is full; the cache probe has no side effects.
func (c *Core) lmqBlocked(e *qent) bool {
	return e.op == isa.OpLoad && c.thr[e.thread].lmqActive >= c.cfg.LMQPerThread &&
		!c.hier.L1Resident(c.id, e.addr)
}

// FastForward jumps the core from the current cycle to target, applying
// in closed form exactly the bookkeeping the skipped Steps would have
// performed: decode-slot grants (and their stall statistics, including
// the granted-but-throttled slots of a miss-throttled thread), balance
// monitor throttle-countdown advance, cycle/GCT-occupancy integrals,
// and the fetch-buffer refills of the span (replayed verbatim — fetch
// is cycle-independent, so running it for the cycles it would have
// progressed is exact and it goes quiescent once the buffers fill). It
// is only legal after NextEvent reported ok with wake >= target; the
// result is bit-identical to calling Step target-cycle times.
func (c *Core) FastForward(target uint64) {
	n := target - c.cycle
	if n == 0 || target < c.cycle {
		return
	}
	grants := c.alloc.SkipGrants(n)
	for i, ts := range c.thr {
		if !c.active[i] {
			continue
		}
		// Every skipped grant is a stalled decode slot: the event
		// analysis proved the thread could not decode anywhere in the
		// window (its first effective decode slot is at or past target).
		ts.stats.DecodeGranted += grants[i]
		ts.stats.DecodeStalled += grants[i]
		c.mon.SkipObserve(i, ts.lmqMisses, c.active[1-i], n)
	}
	for k := uint64(0); k < n; k++ {
		if !c.fetch(c.cycle + k) {
			break // all fetch buffers full; later cycles fetch nothing
		}
	}
	c.cstats.Cycles += n
	c.cstats.GCTOccupSum += n * uint64(c.gctUsed())
	c.cycle = target
	// The wake this jump targeted is, by construction, a cycle on which
	// some core's state changes; mark the arrival as progressed so the
	// chip steps it instead of probing the wheel again.
	c.progressed = true
}

// Progressed reports whether the core's last advanced cycle changed
// state beyond FastForward's closed-form bookkeeping. A progressed cycle
// cannot open a skippable window, so callers use it to bypass NextEvent
// on busy cycles at the cost of at most one stepped cycle per window.
func (c *Core) Progressed() bool { return c.progressed }

// resolveBranches applies mispredict squashes whose resolution time is due.
// Due events are processed oldest-first; each squash filters younger events
// itself, so the loop re-scans until no due event remains.
func (c *Core) resolveBranches(now uint64) {
	for _, ts := range c.thr {
		for {
			idx := -1
			for i := range ts.pendBr {
				if ts.pendBr[i].at <= now && (idx < 0 || ts.pendBr[i].seq < ts.pendBr[idx].seq) {
					idx = i
				}
			}
			if idx < 0 {
				break
			}
			seq := ts.pendBr[idx].seq
			ts.pendBr[idx] = ts.pendBr[len(ts.pendBr)-1]
			ts.pendBr = ts.pendBr[:len(ts.pendBr)-1]
			c.progressed = true
			c.squash(ts, seq, now)
		}
	}
}

// squash removes all of ts's in-flight state younger than seq and redirects
// fetch to seq+1.
func (c *Core) squash(ts *threadState, seq uint64, now uint64) {
	// Drop younger groups (they are at the tail, oldest first).
	for ts.gLen > 0 {
		gi := ts.group(ts.gLen - 1)
		g := &c.gct[gi]
		if g.firstSeq <= seq {
			break
		}
		ts.stats.BranchFlushes += uint64(g.n)
		c.gctFree = append(c.gctFree, gi)
		ts.gLen--
	}
	// Remove younger queue entries.
	c.dropEntries(func(e *qent) bool { return int(e.thread) == ts.id && e.seq > seq })
	// Cancel younger outstanding misses.
	ts.lmqSquash(seq, now)
	// Drop younger pending branch events.
	pb := ts.pendBr[:0]
	for _, ev := range ts.pendBr {
		if ev.seq <= seq {
			pb = append(pb, ev)
		}
	}
	ts.pendBr = pb
	// Refetch from seq+1 and pay the redirect penalty.
	ts.fetchSeq = seq + 1
	ts.decodeSeq = seq + 1
	if until := now + c.cfg.MispredictPenalty; until > ts.blockedUntil {
		ts.blockedUntil = until
	}
}

// dropEntries frees every queue entry matching drop and removes it from
// the ready lists, the timing wheel and the far list. Registrations made
// by dropped entries go stale: the age check skips them at wake, and a
// producer's list is emptied when it issues.
func (c *Core) dropEntries(drop func(*qent) bool) {
	n := 0
	for s := range c.ents {
		e := &c.ents[s]
		if e.age != 0 && drop(e) {
			c.freeEntry(int32(s))
			n++
		}
	}
	if n == 0 {
		return
	}
	for u := range c.ready {
		c.ready[u] = c.liveOnly(c.ready[u])
	}
	for b := c.wheelBits; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		c.wheel[i] = c.liveOnly(c.wheel[i])
		if len(c.wheel[i]) == 0 {
			c.wheelBits &^= 1 << i
		}
	}
	far := c.far[:0]
	c.farMin = NoEvent
	for _, x := range c.far {
		if c.ents[x.slot].age != 0 {
			far = append(far, x)
			c.farMin = min(c.farMin, x.at)
		}
	}
	c.far = far
}

// liveOnly filters freed slots out of l in place.
func (c *Core) liveOnly(l []int32) []int32 {
	out := l[:0]
	for _, s := range l {
		if c.ents[s].age != 0 {
			out = append(out, s)
		}
	}
	return out
}

// freeEntry returns a queue slot to the free stack.
func (c *Core) freeEntry(s int32) {
	e := &c.ents[s]
	c.qlen[e.unit]--
	e.age = 0
	c.entFree = append(c.entFree, s)
}

// retire completes up to one group per thread per cycle, in order.
func (c *Core) retire(now uint64) {
	for _, ts := range c.thr {
		if ts.gLen == 0 {
			continue
		}
		gi := ts.group(0)
		g := &c.gct[gi]
		if g.issuedCnt < g.n || g.doneAt > now {
			continue
		}
		c.progressed = true
		if g.marked {
			c.retireMarked(ts, g, now)
		} else {
			ts.stats.Instructions += uint64(g.n)
		}
		ts.stats.Groups++
		ts.gHead = (ts.gHead + 1) & (len(ts.groups) - 1)
		ts.gLen--
		c.gctFree = append(c.gctFree, gi)
	}
}

// retireMarked retires a group instruction by instruction, accounting
// iteration and repetition marks and applying priority-set instructions.
func (c *Core) retireMarked(ts *threadState, g *group, now uint64) {
	for i := 0; i < g.n; i++ {
		d := ts.instr(g.firstSeq + uint64(i))
		ts.stats.Instructions++
		if d.EndIter {
			ts.stats.Iterations++
		}
		if d.EndRep {
			ts.stats.Repetitions++
			ts.stats.RepEndCycles = append(ts.stats.RepEndCycles, now)
			ts.stats.RepEndInstrs = append(ts.stats.RepEndInstrs, ts.stats.Instructions)
		}
		if d.Op == isa.OpPrioSet {
			cur := c.alloc.Priority(ts.id)
			next := prio.Apply(cur, prio.Level(d.Prio), ts.priv)
			if next != cur {
				c.alloc.Set(ts.id, next)
				c.syncMemWeights()
				c.refreshActive()
				ts.stats.PrioChanges++
			} else if prio.Level(d.Prio) != cur {
				ts.stats.PrioDenied++
			}
		}
	}
}

// issue starts execution of the oldest ready entries of each unit class,
// up to its functional-unit count. Only due entries are visited: timed
// entries whose readyAt has arrived join their unit's ready list first,
// and an issuing producer wakes its consumers.
func (c *Core) issue(now uint64) {
	c.promote(now)
	for u := range c.ready {
		slots := c.cfg.NumFU[u]
		for i := 0; i < len(c.ready[u]) && slots > 0; {
			s := c.ready[u][i]
			e := &c.ents[s]
			// A load that may miss needs a free LMQ entry.
			if c.lmqBlocked(e) {
				i++
				continue
			}
			// Entries before i are older blocked loads; consumers woken
			// by this issue are younger, so they land at or after i.
			l := c.ready[u]
			c.ready[u] = l[:i+copy(l[i:], l[i+1:])]
			slots--
			c.execute(e, now)
			c.freeEntry(s)
		}
	}
}

// execute issues queue entry e at cycle now: it starts the operation,
// publishes the result time and wakes the consumers waiting on it.
func (c *Core) execute(e *qent, now uint64) {
	ts := c.thr[e.thread]
	c.progressed = true
	c.cstats.IssuedByUnit[e.unit]++
	var doneAt uint64
	switch e.op {
	case isa.OpLoad:
		res := c.hier.Load(c.id, int(e.thread), e.addr, now)
		doneAt = res.Done
		if res.Level != mem.HitL1 {
			ts.lmqInsert(lmqEntry{seq: e.seq, done: res.Done, level: res.Level})
		}
	case isa.OpStore:
		c.hier.Store(c.id, int(e.thread), e.addr, now)
		doneAt = now + c.cfg.LatStore
	case isa.OpBranch:
		doneAt = now + c.cfg.LatBranch
		if e.mispred {
			ts.pendBr = append(ts.pendBr, brEvent{seq: e.seq, at: doneAt})
		}
	default:
		doneAt = now + c.cfg.latency(e.op)
	}
	ts.resultAt[e.seq&(resultRing-1)] = doneAt
	g := &c.gct[e.gi]
	g.issuedCnt++
	if doneAt > g.doneAt {
		g.doneAt = doneAt
	}
	w := &ts.waiters[e.seq&ts.mask]
	for _, x := range *w {
		ce := &c.ents[x.slot]
		if ce.age != x.age {
			continue // consumer squashed since it registered
		}
		if doneAt > ce.readyAt {
			ce.readyAt = doneAt
		}
		if ce.pending--; ce.pending == 0 {
			c.schedule(x.slot, now)
		}
	}
	*w = (*w)[:0]
}

// schedule places an entry whose producers have all issued: on its
// unit's ready list when it can issue at cycle horizon, else on the
// timing wheel (or the far list) until its readyAt.
func (c *Core) schedule(s int32, horizon uint64) {
	at := c.ents[s].readyAt
	switch {
	case at <= horizon:
		c.makeReady(s)
	case at-c.cycle < wheelSize:
		b := at & (wheelSize - 1)
		c.wheel[b] = append(c.wheel[b], s)
		c.wheelBits |= 1 << b
	default:
		c.far = append(c.far, timedEnt{at: at, slot: s})
		c.farMin = min(c.farMin, at)
	}
}

// makeReady inserts entry s into its unit's ready list in age order.
// New entries are usually the youngest, so the insertion scan is short.
func (c *Core) makeReady(s int32) {
	e := &c.ents[s]
	l := append(c.ready[e.unit], s)
	j := len(l) - 1
	for j > 0 && c.ents[l[j-1]].age > e.age {
		l[j] = l[j-1]
		j--
	}
	l[j] = s
	c.ready[e.unit] = l
}

// promote moves timed entries whose readyAt has arrived to their ready
// lists. Every wheel entry is due within wheelSize cycles of the cycle it
// was scheduled on, and no cycle that has one due is skipped, so bucket
// now holds exactly the entries due now.
func (c *Core) promote(now uint64) {
	if b := now & (wheelSize - 1); c.wheelBits&(1<<b) != 0 {
		for _, s := range c.wheel[b] {
			c.makeReady(s)
		}
		c.wheel[b] = c.wheel[b][:0]
		c.wheelBits &^= 1 << b
	}
	if c.farMin <= now {
		// Far entries are rare (operands due wheelSize or more cycles
		// after their producer issued), so a linear pass is cheap.
		far := c.far[:0]
		c.farMin = NoEvent
		for _, x := range c.far {
			if x.at <= now {
				c.makeReady(x.slot)
			} else {
				far = append(far, x)
				c.farMin = min(c.farMin, x.at)
			}
		}
		c.far = far
	}
}

// nextTimed returns the earliest readyAt of the timed entries, NoEvent if
// there are none.
func (c *Core) nextTimed(now uint64) uint64 {
	at := NoEvent
	if c.wheelBits != 0 {
		d := bits.TrailingZeros64(bits.RotateLeft64(c.wheelBits, -int(now&(wheelSize-1))))
		at = now + uint64(d)
	}
	return min(at, c.farMin)
}

// balanceStep runs the resource-balancing monitor for both threads and
// returns the per-thread decode-stall decisions.
func (c *Core) balanceStep() [2]bool {
	var stall [2]bool
	for i, ts := range c.thr {
		if !c.active[i] {
			continue
		}
		d := c.mon.Observe(i, ts.gctHeld(), ts.lmqMisses, c.active[1-i])
		stall[i] = d.StallDecode
		if d.FlushDispatch && ts.fetched() > 0 {
			// Flush dispatch-pending instructions: they will be re-fetched.
			ts.fetchSeq = ts.decodeSeq
			ts.stats.BalanceFlushes++
			c.progressed = true
		}
	}
	return stall
}

// decode forms and dispatches one group from the thread granted this
// cycle's decode slot.
func (c *Core) decode(now uint64, stall [2]bool) {
	gr := c.alloc.Next()
	if gr.None {
		return
	}
	t := gr.Thread
	ts := c.thr[t]
	if !c.active[t] {
		return
	}
	ts.stats.DecodeGranted++
	avail := ts.fetched()
	if stall[t] || ts.blockedUntil > now || avail == 0 || c.gctUsed() >= c.cfg.GCTEntries {
		ts.stats.DecodeStalled++
		return
	}
	limit := c.cfg.GroupSize
	if gr.SingleInstr {
		limit = 1
	}
	gi := c.gctFree[len(c.gctFree)-1]
	g := &c.gct[gi]
	*g = group{firstSeq: ts.decodeSeq}
	var unitCount [isa.UnitCount]int
	for g.n < limit && g.n < avail {
		seq := ts.decodeSeq + uint64(g.n)
		d := ts.instr(seq)
		u := isa.UnitOf(d.Op)
		if unitCount[u] >= c.cfg.GroupUnitCap[u] {
			break // typed group slots exhausted for this unit class
		}
		if c.queueFull(u) {
			break
		}
		unitCount[u]++
		mispred := false
		if d.Op == isa.OpBranch {
			pred := c.pred.Predict(t, d.PC)
			c.pred.Update(t, d.PC, d.Taken)
			if pred != d.Taken {
				mispred = true
				ts.stats.BranchMispredicts++
			}
		}
		c.dispatch(ts, d, u, gi, mispred, now)
		if d.EndIter || d.EndRep || d.Op == isa.OpPrioSet {
			g.marked = true
		}
		g.n++
		if d.Op == isa.OpBranch {
			break // groups end at a branch
		}
	}
	if g.n == 0 {
		ts.stats.DecodeStalled++
		return
	}
	c.gctFree = c.gctFree[:len(c.gctFree)-1]
	ts.decodeSeq += uint64(g.n)
	ts.groups[(ts.gHead+ts.gLen)&(len(ts.groups)-1)] = gi
	ts.gLen++
	ts.stats.DecodeUsed++
	c.progressed = true
	c.cstats.DecodedInstrs += uint64(g.n)
	c.cstats.DecodedGroups++
}

// dispatch enters instruction d into unit u's issue queue at decode
// cycle now. It registers on each producer that has not issued; with
// none pending it is scheduled for the next cycle's issue.
func (c *Core) dispatch(ts *threadState, d *isa.Dyn, u isa.Unit, gi int32, mispred bool, now uint64) {
	s := c.entFree[len(c.entFree)-1]
	c.entFree = c.entFree[:len(c.entFree)-1]
	c.qlen[u]++
	e := &c.ents[s]
	*e = qent{age: c.nextAge, seq: d.Seq, addr: d.Addr, gi: gi,
		op: d.Op, unit: u, thread: int8(ts.id), mispred: mispred}
	c.nextAge++
	for _, dep := range [2]uint64{d.DepA, d.DepB} {
		if dep == isa.DepNone {
			continue
		}
		if r := ts.resultAt[dep&(resultRing-1)]; r != notDone {
			if r > e.readyAt {
				e.readyAt = r
			}
			continue
		}
		w := &ts.waiters[dep&ts.mask]
		*w = append(*w, waiter{slot: s, age: e.age})
		e.pending++
	}
	if e.pending == 0 {
		c.schedule(s, now+1)
	}
}

// fetch refills the fetch buffers from the replay ring or the stream and
// reports whether any thread made progress (false once every active
// buffer is full, which lets FastForward stop replaying refills early).
func (c *Core) fetch(now uint64) bool {
	progress := false
	for i, ts := range c.thr {
		if !c.active[i] || ts.stream == nil {
			continue
		}
		n := c.cfg.FetchBufCap - ts.fetched()
		if n > c.cfg.FetchWidth {
			n = c.cfg.FetchWidth
		}
		if n <= 0 {
			continue
		}
		progress = true
		for end := ts.fetchSeq + uint64(n); ts.fetchSeq < end; ts.fetchSeq++ {
			if ts.fetchSeq == ts.genSeq {
				ts.stream.Next(ts.instr(ts.genSeq))
				ts.genSeq++
			}
			ts.resultAt[ts.fetchSeq&(resultRing-1)] = notDone
		}
	}
	return progress
}

// gctUsed returns the total GCT occupancy.
func (c *Core) gctUsed() int { return c.thr[0].gLen + c.thr[1].gLen }
