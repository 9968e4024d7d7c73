// Package isa defines the instruction representation consumed by the
// pipeline simulator: static instruction templates with register-renamed
// dependency distances, and the dynamic instruction streams produced by
// expanding a loop kernel.
//
// The representation is deliberately small: the paper's micro-benchmarks
// (Table 2) and case-study applications only need integer/floating-point
// arithmetic, loads/stores with controllable locality, branches with
// controllable predictability, and the or-nop priority-setting instruction.
package isa

import "fmt"

// Op is the execution class of an instruction. It determines which
// functional unit executes it and with which latency.
type Op uint8

// Instruction classes. The latencies associated with each class live in the
// pipeline configuration, not here.
const (
	// OpNop executes in one cycle on the FXU and writes no result.
	OpNop Op = iota
	// OpIntAdd is a short-latency integer ALU operation (add/sub/logical).
	OpIntAdd
	// OpIntMul is a long-latency integer multiply.
	OpIntMul
	// OpIntDiv is a very long latency integer divide.
	OpIntDiv
	// OpFPAdd is a pipelined floating-point add/sub.
	OpFPAdd
	// OpFPMul is a pipelined floating-point multiply (fused ops use this too).
	OpFPMul
	// OpLoad reads memory; its latency depends on where the line is found.
	OpLoad
	// OpStore writes memory. Stores never block completion (the simulator
	// models an infinite store buffer) but occupy an LSU issue slot.
	OpStore
	// OpBranch is a conditional branch resolved at execute.
	OpBranch
	// OpPrioSet is the POWER5 `or X,X,X` priority-setting no-op. It carries
	// the requested priority level in Instr.Prio and takes effect at
	// completion, subject to privilege checking by the pipeline.
	OpPrioSet

	opCount = iota
)

var opNames = [opCount]string{
	"nop", "intadd", "intmul", "intdiv", "fpadd", "fpmul",
	"load", "store", "branch", "prioset",
}

// String returns the mnemonic for the op class.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Unit is the functional-unit class an op issues to.
type Unit uint8

// Functional-unit classes of the POWER5-like core.
const (
	UnitFX Unit = iota // fixed-point units
	UnitLS             // load/store units
	UnitFP             // floating-point units
	UnitBR             // branch unit

	UnitCount = iota
)

var unitNames = [UnitCount]string{"FX", "LS", "FP", "BR"}

// String returns the unit mnemonic.
func (u Unit) String() string { return unitNames[u] }

// UnitOf maps an op class to the functional unit that executes it.
func UnitOf(op Op) Unit {
	switch op {
	case OpLoad, OpStore:
		return UnitLS
	case OpFPAdd, OpFPMul:
		return UnitFP
	case OpBranch:
		return UnitBR
	default:
		return UnitFX
	}
}

// NoDep marks an absent source dependency in a template.
const NoDep = -1

// BranchKind describes how a branch template resolves its outcome.
type BranchKind uint8

const (
	// BranchNone marks a non-branch instruction.
	BranchNone BranchKind = iota
	// BranchLoop closes the kernel loop body: taken on every iteration
	// except the last of a repetition. Highly predictable.
	BranchLoop
	// BranchPattern resolves from a per-kernel boolean pattern stream
	// (used by br_hit / br_miss: all-zeros vs pseudo-random).
	BranchPattern
)

// Template is one static instruction of a kernel loop body.
//
// Dependencies are expressed as distances in dynamic program order: DepA=3
// means "this instruction reads the result of the instruction 3 slots
// earlier in this thread's dynamic stream". Distances are produced by the
// Builder from virtual-register dataflow, so hand-writing them is rarely
// necessary. A distance of NoDep means no dependency on that operand.
type Template struct {
	Op     Op
	DepA   int        // distance to first source producer, or NoDep
	DepB   int        // distance to second source producer, or NoDep
	Stream int        // memory stream index for loads/stores, else -1
	Branch BranchKind // branch resolution kind for OpBranch
	Prio   int        // requested priority level for OpPrioSet
}

// Dyn is a dynamic instruction instance handed to the pipeline. Fields
// are ordered so the struct packs into 48 bytes: the pipeline keeps every
// in-flight instruction in a per-thread ring of these.
type Dyn struct {
	Seq    uint64     // per-thread dynamic sequence number (starts at 0)
	PC     uint64     // pseudo-PC, stable across iterations (body index << 2)
	DepA   uint64     // producer seq; DepNone if none
	DepB   uint64     //
	Addr   uint64     // effective address for loads/stores
	Op     Op         //
	Branch BranchKind // branch kind (BranchNone if not a branch)
	Taken  bool       // branch outcome
	Prio   int8       // priority level for OpPrioSet
	// Marks: set on the last instruction of an iteration / repetition so the
	// measurement layer can account iteration and repetition boundaries.
	EndIter bool
	EndRep  bool
}

// DepNone is the sentinel producer sequence meaning "operand always ready".
const DepNone = ^uint64(0)
