package isa

import (
	"testing"
	"testing/quick"
)

// next returns the stream's next instruction by value.
func next(s *Stream) Dyn {
	var d Dyn
	s.Next(&d)
	return d
}

func TestStreamSequenceAndMarks(t *testing.T) {
	k := buildAccum(t, 3) // body of 3, 3 iters -> 9 dyn per rep
	s := NewStream(k)
	for rep := 0; rep < 2; rep++ {
		for it := 0; it < 3; it++ {
			for j := 0; j < 3; j++ {
				d := next(s)
				wantSeq := uint64(rep*9 + it*3 + j)
				if d.Seq != wantSeq {
					t.Fatalf("seq = %d, want %d", d.Seq, wantSeq)
				}
				wantEndIter := j == 2
				if d.EndIter != wantEndIter {
					t.Errorf("seq %d EndIter = %v, want %v", d.Seq, d.EndIter, wantEndIter)
				}
				wantEndRep := j == 2 && it == 2
				if d.EndRep != wantEndRep {
					t.Errorf("seq %d EndRep = %v, want %v", d.Seq, d.EndRep, wantEndRep)
				}
			}
		}
	}
	if s.EmittedReps() != 2 {
		t.Errorf("EmittedReps = %d, want 2", s.EmittedReps())
	}
}

func TestStreamLoopBranchOutcome(t *testing.T) {
	k := buildAccum(t, 3)
	s := NewStream(k)
	var outcomes []bool
	for i := 0; i < 9; i++ {
		d := next(s)
		if d.Op == OpBranch {
			outcomes = append(outcomes, d.Taken)
		}
	}
	want := []bool{true, true, false}
	if len(outcomes) != len(want) {
		t.Fatalf("got %d branches, want %d", len(outcomes), len(want))
	}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Errorf("branch %d taken = %v, want %v", i, outcomes[i], want[i])
		}
	}
}

func TestStreamDependencyResolution(t *testing.T) {
	k := buildAccum(t, 2)
	s := NewStream(k)
	// First instruction of the program: loop-carried deps point before the
	// start and must resolve to DepNone.
	d0 := next(s) // mul, no deps anyway
	d1 := next(s) // add: DepA dist 3 -> before start -> DepNone; DepB dist 1 -> seq 0
	if d0.DepA != DepNone {
		t.Errorf("d0.DepA = %d, want DepNone", d0.DepA)
	}
	if d1.DepA != DepNone {
		t.Errorf("d1.DepA = %d, want DepNone (before program start)", d1.DepA)
	}
	if d1.DepB != 0 {
		t.Errorf("d1.DepB = %d, want 0", d1.DepB)
	}
	next(s)       // branch (seq 2)
	next(s)       // mul (seq 3)
	d4 := next(s) // add (seq 4): DepA dist 3 -> seq 1; DepB dist 1 -> seq 3
	if d4.DepA != 1 || d4.DepB != 3 {
		t.Errorf("d4 deps = (%d,%d), want (1,3)", d4.DepA, d4.DepB)
	}
}

func buildLoadKernel(t *testing.T, kind StreamKind, footprint uint64) *Kernel {
	t.Helper()
	b := NewBuilder("ld")
	v := b.Reg("v")
	st := b.Stream(StreamSpec{Kind: kind, Footprint: footprint, Stride: 256, Seed: 1})
	b.Load(v, st, regNone)
	b.Branch(BranchLoop, v)
	k, err := b.Build(64)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return k
}

func TestStreamChaseVisitsAllLines(t *testing.T) {
	const lines = 32
	k := buildLoadKernel(t, StreamChase, lines*CacheLineSize)
	s := NewStream(k)
	seen := map[uint64]bool{}
	for i := 0; i < lines*2; i++ {
		d := next(s) // load
		if d.Op != OpLoad {
			t.Fatalf("expected load, got %v", d.Op)
		}
		if d.Addr%CacheLineSize != 0 {
			t.Fatalf("addr %#x not line aligned", d.Addr)
		}
		if d.Addr >= lines*CacheLineSize {
			t.Fatalf("addr %#x outside footprint", d.Addr)
		}
		seen[d.Addr] = true
		next(s) // branch
	}
	if len(seen) != lines {
		t.Errorf("chase visited %d distinct lines in 2 laps, want %d", len(seen), lines)
	}
}

func TestStreamChaseCarriesDependency(t *testing.T) {
	k := buildLoadKernel(t, StreamChase, 64*CacheLineSize)
	s := NewStream(k)
	d0 := next(s)
	if d0.DepA != DepNone {
		t.Errorf("first chase load DepA = %d, want DepNone", d0.DepA)
	}
	next(s) // branch
	d2 := next(s)
	if d2.DepA != d0.Seq {
		t.Errorf("second chase load DepA = %d, want %d (previous load)", d2.DepA, d0.Seq)
	}
}

func TestStreamStrideIndependentAndWraps(t *testing.T) {
	const lines = 8
	k := buildLoadKernel(t, StreamStride, lines*CacheLineSize)
	s := NewStream(k)
	var addrs []uint64
	for i := 0; i < lines+2; i++ {
		d := next(s)
		if d.DepA != DepNone && d.Op == OpLoad {
			// stride loads must not carry chase dependencies
			t.Errorf("stride load %d has DepA = %d", i, d.DepA)
		}
		addrs = append(addrs, d.Addr)
		next(s)
	}
	// stride 256 = 2 lines; with 8 lines we wrap after 4 accesses.
	if addrs[0] != addrs[4] {
		t.Errorf("stride stream did not wrap: addr[0]=%#x addr[4]=%#x", addrs[0], addrs[4])
	}
	if addrs[0] == addrs[1] {
		t.Error("stride stream did not advance")
	}
}

func TestStreamRandomStaysInFootprint(t *testing.T) {
	const fp = 16 * CacheLineSize
	k := buildLoadKernel(t, StreamRandom, fp)
	s := NewStream(k)
	for i := 0; i < 200; i++ {
		d := next(s)
		if d.Op == OpLoad && d.Addr >= fp {
			t.Fatalf("random addr %#x outside footprint %#x", d.Addr, uint64(fp))
		}
	}
}

func TestStreamPatternBranch(t *testing.T) {
	b := NewBuilder("br")
	a := b.Reg("a")
	b.Op2(OpIntAdd, a, a, a)
	b.Branch(BranchPattern, a)
	b.Branch(BranchLoop, a)
	b.Pattern(func(n uint64) bool { return n%2 == 0 })
	k, err := b.Build(4)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := NewStream(k)
	var got []bool
	for i := 0; i < 12; i++ {
		d := next(s)
		if d.Branch == BranchPattern {
			got = append(got, d.Taken)
		}
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pattern branch %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: Sattolo cycle construction yields a single cycle covering all
// lines, for any size and seed.
func TestBuildCycleProperty(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := uint64(nRaw%500) + 2
		next := buildCycle(n, seed)
		seen := make([]bool, n)
		cur := uint32(0)
		for i := uint64(0); i < n; i++ {
			if seen[cur] {
				return false // revisited before covering everything
			}
			seen[cur] = true
			cur = next[cur]
		}
		return cur == 0 // back at start after exactly n steps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: dynamic deps always point strictly backwards.
func TestStreamDepsBackwardProperty(t *testing.T) {
	k := buildAccum(t, 5)
	s := NewStream(k)
	for i := 0; i < 500; i++ {
		d := next(s)
		if d.DepA != DepNone && d.DepA >= d.Seq {
			t.Fatalf("seq %d DepA %d not strictly backwards", d.Seq, d.DepA)
		}
		if d.DepB != DepNone && d.DepB >= d.Seq {
			t.Fatalf("seq %d DepB %d not strictly backwards", d.Seq, d.DepB)
		}
	}
}

func TestRNGNonZero(t *testing.T) {
	r := newRNG(0) // zero seed must be remapped
	if r.next() == 0 {
		t.Error("rng produced 0 from remapped zero seed")
	}
}
