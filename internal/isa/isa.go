// Package isa defines the instruction set architecture shared by the
// functional front end (internal/program) and the timing models
// (internal/ooo, internal/core): register file layout, operation
// classes, functional-unit latencies and the dynamic-instruction record
// that flows through every simulator stage.
//
// The ISA is a load/store RISC machine with 32 integer and 32
// floating-point architectural registers and 64-bit words. It is
// deliberately minimal — the reproduction needs realistic dependence
// topology and operation mixes, not binary compatibility.
package isa

import "fmt"

// Reg names an architectural register. Integer registers are R0..R31,
// floating-point registers are F0..F31. R0 is hard-wired to zero, as on
// MIPS/RISC-V; writes to it are discarded and reads never create a
// dependence. RegNone marks an unused operand slot.
type Reg uint8

// Register-file layout.
const (
	// R0 is the hard-wired zero register.
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	// SP is the conventional stack pointer (an alias kept as its own
	// constant so kernels and the executor agree on calling convention).
	SP // R29
	// FP is the conventional frame pointer.
	FP // R30
	// RA holds return addresses for Call/Ret.
	RA // R31

	F0
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
	F16
	F17
	F18
	F19
	F20
	F21
	F22
	F23
	F24
	F25
	F26
	F27
	F28
	F29
	F30
	F31

	// RegNone marks an absent operand. It must stay last.
	RegNone
)

// NumRegs is the total number of architectural registers (integer plus
// floating point). Valid Reg values are in [0, NumRegs).
const NumRegs = 64

// NumIntRegs is the number of integer registers; Reg values below this
// bound are integer registers.
const NumIntRegs = 32

// IsInt reports whether r is an integer register.
func (r Reg) IsInt() bool { return r < NumIntRegs }

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= NumIntRegs && r < NumRegs }

// Valid reports whether r names a real register (not RegNone or junk).
func (r Reg) Valid() bool { return r < NumRegs }

// String returns the assembly name of the register ("r7", "f3", "sp",
// "fp", "ra", or "-" for RegNone).
func (r Reg) String() string {
	switch {
	case r == SP:
		return "sp"
	case r == FP:
		return "fp"
	case r == RA:
		return "ra"
	case r < NumIntRegs:
		return fmt.Sprintf("r%d", uint8(r))
	case r < NumRegs:
		return fmt.Sprintf("f%d", uint8(r)-NumIntRegs)
	default:
		return "-"
	}
}

// Class groups operations by the functional unit that executes them and
// by their scheduling behaviour. The timing models dispatch on Class,
// never on the concrete opcode.
type Class uint8

// Operation classes.
const (
	// ClassNop takes an issue slot but no functional unit.
	ClassNop Class = iota
	// ClassIntAlu is single-cycle integer arithmetic/logic.
	ClassIntAlu
	// ClassIntMul is pipelined integer multiply.
	ClassIntMul
	// ClassIntDiv is unpipelined integer divide.
	ClassIntDiv
	// ClassFPAlu is pipelined floating-point add/sub/compare/convert.
	ClassFPAlu
	// ClassFPMul is pipelined floating-point multiply.
	ClassFPMul
	// ClassFPDiv is unpipelined floating-point divide/sqrt.
	ClassFPDiv
	// ClassLoad reads memory through the data cache.
	ClassLoad
	// ClassStore writes memory; data leaves the store queue at commit.
	ClassStore
	// ClassBranch is a conditional branch.
	ClassBranch
	// ClassJump is an unconditional direct or indirect jump, including
	// calls and returns.
	ClassJump

	numClasses
)

// NumClasses is the number of distinct operation classes.
const NumClasses = int(numClasses)

// String returns a short mnemonic for the class.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntAlu:
		return "ialu"
	case ClassIntMul:
		return "imul"
	case ClassIntDiv:
		return "idiv"
	case ClassFPAlu:
		return "falu"
	case ClassFPMul:
		return "fmul"
	case ClassFPDiv:
		return "fdiv"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassJump:
		return "jump"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Latency describes the execution timing of a class on a functional
// unit: Cycles is the result latency, Pipelined reports whether a new
// operation of the class can start every cycle on the same unit.
type Latency struct {
	Cycles    int
	Pipelined bool
}

// DefaultLatencies is the baseline latency table used by all machine
// presets. It follows the mid-2000s out-of-order cores the Core Fusion
// and Fg-STP studies modelled. Load latency here is the execute-stage
// cost excluding the cache; the cache hierarchy adds its own cycles.
var DefaultLatencies = [NumClasses]Latency{
	ClassNop:    {Cycles: 1, Pipelined: true},
	ClassIntAlu: {Cycles: 1, Pipelined: true},
	ClassIntMul: {Cycles: 3, Pipelined: true},
	ClassIntDiv: {Cycles: 20, Pipelined: false},
	ClassFPAlu:  {Cycles: 3, Pipelined: true},
	ClassFPMul:  {Cycles: 4, Pipelined: true},
	ClassFPDiv:  {Cycles: 12, Pipelined: false},
	ClassLoad:   {Cycles: 1, Pipelined: true},
	ClassStore:  {Cycles: 1, Pipelined: true},
	ClassBranch: {Cycles: 1, Pipelined: true},
	ClassJump:   {Cycles: 1, Pipelined: true},
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// IsCtrl reports whether the class can redirect the instruction stream.
func (c Class) IsCtrl() bool { return c == ClassBranch || c == ClassJump }

// IsFP reports whether the class executes on the floating-point unit.
func (c Class) IsFP() bool {
	return c == ClassFPAlu || c == ClassFPMul || c == ClassFPDiv
}

// InstBytes is the architectural size of one instruction; PCs advance
// by this amount on sequential flow.
const InstBytes uint64 = 4
