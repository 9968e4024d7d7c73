package isa

// CacheLineSize is the line size assumed by address generators. It matches
// the POWER5 L2/L3 line size of 128 bytes.
const CacheLineSize = 128

// rng is a small xorshift64* generator: deterministic, allocation-free.
type rng uint64

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng(seed)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// addrGen yields successive effective addresses for one memory stream.
type addrGen struct {
	spec  StreamSpec
	lines uint64 // footprint in lines
	pos   uint64 // current line index (chase/stride)
	r     rng
	perm  []uint32 // chase permutation: perm[i] = next line after i
}

func newAddrGen(spec StreamSpec) *addrGen {
	lines := (spec.Footprint + CacheLineSize - 1) / CacheLineSize
	if lines == 0 {
		lines = 1
	}
	g := &addrGen{spec: spec, lines: lines, r: newRNG(spec.Seed)}
	if spec.Kind == StreamChase {
		g.perm = buildCycle(lines, spec.Seed)
	}
	return g
}

// buildCycle builds a single-cycle permutation over n lines using a
// Sattolo shuffle, so a chase visits every line before repeating.
// Footprints are capped at 1<<32 lines (512 GiB), far beyond any workload.
func buildCycle(n uint64, seed uint64) []uint32 {
	r := newRNG(seed)
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	// Sattolo: exactly one cycle.
	for i := n - 1; i > 0; i-- {
		j := r.next() % i
		p[i], p[j] = p[j], p[i]
	}
	// p is now a permutation listing; convert "visit order" into successor
	// links: next[p[i]] = p[i+1].
	next := make([]uint32, n)
	for i := uint64(0); i+1 < n; i++ {
		next[p[i]] = p[i+1]
	}
	next[p[n-1]] = p[0]
	return next
}

// next returns the next effective address of the stream.
func (g *addrGen) next() uint64 {
	var line uint64
	switch g.spec.Kind {
	case StreamChase:
		line = g.pos
		g.pos = uint64(g.perm[g.pos])
	case StreamStride:
		line = g.pos
		g.pos = (g.pos + (g.spec.Stride+CacheLineSize-1)/CacheLineSize) % g.lines
	case StreamRandom:
		line = g.r.next() % g.lines
	}
	return g.spec.Base + line*CacheLineSize
}

// chained reports whether consecutive accesses of this stream carry a data
// dependency (pointer chasing).
func (g *addrGen) chained() bool { return g.spec.Kind == StreamChase }

// Stream expands a kernel into its dynamic instruction sequence. It is the
// per-thread program the pipeline fetches from; the kernel restarts
// automatically after each repetition (FAME-style continuous re-execution).
type Stream struct {
	k    *Kernel
	gens []*addrGen
	base uint64 // address-space offset added to every access
	seq  uint64 // next dynamic sequence number
	iter int    // current iteration within the repetition
	idx  int    // current index within the body
	npat uint64 // pattern-branch counter
	reps uint64 // completed repetitions emitted
	// lastLoad[s] = seq of the most recent load of stream s (for chasing).
	lastLoad []uint64
}

// NewStream returns a dynamic instruction stream for k. The kernel must be
// valid (see Kernel.Validate).
func NewStream(k *Kernel) *Stream {
	return NewStreamAt(k, 0)
}

// NewStreamAt returns a stream whose memory addresses are all offset by
// base. Co-scheduled workloads use disjoint bases to model separate address
// spaces.
func NewStreamAt(k *Kernel, base uint64) *Stream {
	gens := make([]*addrGen, len(k.Streams))
	for i, s := range k.Streams {
		gens[i] = newAddrGen(s)
	}
	ll := make([]uint64, len(k.Streams))
	for i := range ll {
		ll[i] = DepNone
	}
	return &Stream{k: k, gens: gens, lastLoad: ll, base: base}
}

// Kernel returns the kernel this stream expands.
func (s *Stream) Kernel() *Kernel { return s.k }

// EmittedReps returns the number of complete repetitions emitted so far.
func (s *Stream) EmittedReps() uint64 { return s.reps }

// Next writes the next dynamic instruction into d, overwriting every
// field, so callers can generate straight into their own storage. The
// stream is infinite: the kernel repeats forever, with EndIter/EndRep
// marks on boundaries.
func (s *Stream) Next(d *Dyn) {
	t := &s.k.Body[s.idx]
	*d = Dyn{
		Seq:    s.seq,
		PC:     uint64(s.idx) << 2,
		Op:     t.Op,
		DepA:   DepNone,
		DepB:   DepNone,
		Branch: t.Branch,
		Prio:   int8(t.Prio),
	}
	if t.DepA != NoDep && uint64(t.DepA) <= s.seq {
		d.DepA = s.seq - uint64(t.DepA)
	}
	if t.DepB != NoDep && uint64(t.DepB) <= s.seq {
		d.DepB = s.seq - uint64(t.DepB)
	}
	switch t.Op {
	case OpLoad, OpStore:
		g := s.gens[t.Stream]
		d.Addr = g.next() + s.base
		if g.chained() {
			// Pointer chase: this access depends on the previous load of
			// the same stream (fold into DepA if free, else DepB).
			if prev := s.lastLoad[t.Stream]; prev != DepNone {
				if d.DepA == DepNone {
					d.DepA = prev
				} else if d.DepB == DepNone || prev > d.DepB {
					d.DepB = prev
				}
			}
			if t.Op == OpLoad {
				s.lastLoad[t.Stream] = s.seq
			}
		}
	case OpBranch:
		switch t.Branch {
		case BranchLoop:
			d.Taken = s.iter+1 < s.k.Iters
		case BranchPattern:
			if s.k.Pattern != nil {
				d.Taken = s.k.Pattern(s.npat)
			} else {
				d.Taken = true
			}
			s.npat++
		}
	}
	// Advance cursor.
	s.seq++
	s.idx++
	if s.idx == len(s.k.Body) {
		s.idx = 0
		s.iter++
		d.EndIter = true
		if s.iter == s.k.Iters {
			s.iter = 0
			d.EndRep = true
			s.reps++
		}
	}
}
