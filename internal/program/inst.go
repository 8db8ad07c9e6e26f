// Package program defines a small assembly-level intermediate
// representation, a builder for writing programs in it, and a
// functional executor that runs those programs and emits the dynamic
// instruction stream (isa.DynInst) consumed by the timing simulators.
//
// The synthetic SPEC-2006-like kernels in internal/workloads are real
// programs in this IR: their traces carry true register and memory
// dependences, real branch outcomes and real addresses, which is what
// the Fg-STP partitioning hardware keys on.
package program

import (
	"fmt"

	"repro/internal/isa"
)

// Opcode enumerates the static operations of the IR.
type Opcode uint8

// Opcodes. The comment after each gives the assembly form.
const (
	Nop Opcode = iota // nop

	// Integer register-register arithmetic.
	Add // add rd, rs, rt
	Sub // sub rd, rs, rt
	And // and rd, rs, rt
	Or  // or rd, rs, rt
	Xor // xor rd, rs, rt
	Shl // shl rd, rs, rt
	Shr // shr rd, rs, rt  (logical)
	Sar // sar rd, rs, rt  (arithmetic)
	Slt // slt rd, rs, rt  (rd = rs < rt, signed)
	Mul // mul rd, rs, rt
	Div // div rd, rs, rt  (signed; x/0 = 0)
	Rem // rem rd, rs, rt  (signed; x%0 = 0)

	// Integer register-immediate arithmetic.
	Addi // addi rd, rs, imm
	Andi // andi rd, rs, imm
	Ori  // ori rd, rs, imm
	Xori // xori rd, rs, imm
	Shli // shli rd, rs, imm
	Shri // shri rd, rs, imm
	Slti // slti rd, rs, imm
	Li   // li rd, imm      (load 64-bit immediate)

	// Floating point (operands in F registers unless noted).
	Fadd  // fadd fd, fs, ft
	Fsub  // fsub fd, fs, ft
	Fmul  // fmul fd, fs, ft
	Fdiv  // fdiv fd, fs, ft
	Fsqrt // fsqrt fd, fs
	Fneg  // fneg fd, fs
	Fabs  // fabs fd, fs
	Fmax  // fmax fd, fs, ft
	Fmin  // fmin fd, fs, ft
	Flt   // flt rd, fs, ft  (integer rd = fs < ft)
	Cvtif // cvtif fd, rs    (int -> float)
	Cvtfi // cvtfi rd, fs    (float -> int, truncating)
	Fli   // fli fd, imm     (load float immediate; Imm holds bits)

	// Memory (8-byte words). Integer and FP variants share address
	// arithmetic: addr = rs + imm.
	Ld  // ld rd, imm(rs)
	St  // st rt, imm(rs)   (stores rt)
	Fld // fld fd, imm(rs)
	Fst // fst ft, imm(rs)

	// Control flow. Branch targets are label indices resolved by the
	// builder into instruction indices (stored in Imm).
	Beq  // beq rs, rt, label
	Bne  // bne rs, rt, label
	Blt  // blt rs, rt, label (signed)
	Bge  // bge rs, rt, label (signed)
	J    // j label
	Jr   // jr rs            (indirect jump to address in rs)
	Call // call label       (RA = return address)
	Ret  // ret              (jump to RA)

	// Halt ends execution.
	Halt // halt

	numOpcodes
)

// NumOpcodes is the number of distinct opcodes.
const NumOpcodes = int(numOpcodes)

var opNames = [NumOpcodes]string{
	Nop: "nop",
	Add: "add", Sub: "sub", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Sar: "sar", Slt: "slt",
	Mul: "mul", Div: "div", Rem: "rem",
	Addi: "addi", Andi: "andi", Ori: "ori", Xori: "xori",
	Shli: "shli", Shri: "shri", Slti: "slti", Li: "li",
	Fadd: "fadd", Fsub: "fsub", Fmul: "fmul", Fdiv: "fdiv",
	Fsqrt: "fsqrt", Fneg: "fneg", Fabs: "fabs", Fmax: "fmax", Fmin: "fmin",
	Flt: "flt", Cvtif: "cvtif", Cvtfi: "cvtfi", Fli: "fli",
	Ld: "ld", St: "st", Fld: "fld", Fst: "fst",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge",
	J: "j", Jr: "jr", Call: "call", Ret: "ret",
	Halt: "halt",
}

// String returns the assembly mnemonic.
func (o Opcode) String() string {
	if int(o) < NumOpcodes {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// classOf maps each opcode to the ISA operation class the timing models
// schedule on.
var classOf = [NumOpcodes]isa.Class{
	Nop: isa.ClassNop,
	Add: isa.ClassIntAlu, Sub: isa.ClassIntAlu, And: isa.ClassIntAlu,
	Or: isa.ClassIntAlu, Xor: isa.ClassIntAlu, Shl: isa.ClassIntAlu,
	Shr: isa.ClassIntAlu, Sar: isa.ClassIntAlu, Slt: isa.ClassIntAlu,
	Mul: isa.ClassIntMul, Div: isa.ClassIntDiv, Rem: isa.ClassIntDiv,
	Addi: isa.ClassIntAlu, Andi: isa.ClassIntAlu, Ori: isa.ClassIntAlu,
	Xori: isa.ClassIntAlu, Shli: isa.ClassIntAlu, Shri: isa.ClassIntAlu,
	Slti: isa.ClassIntAlu, Li: isa.ClassIntAlu,
	Fadd: isa.ClassFPAlu, Fsub: isa.ClassFPAlu, Fmax: isa.ClassFPAlu,
	Fmin: isa.ClassFPAlu, Fneg: isa.ClassFPAlu, Fabs: isa.ClassFPAlu,
	Flt: isa.ClassFPAlu, Cvtif: isa.ClassFPAlu, Cvtfi: isa.ClassFPAlu,
	Fli:  isa.ClassIntAlu,
	Fmul: isa.ClassFPMul,
	Fdiv: isa.ClassFPDiv, Fsqrt: isa.ClassFPDiv,
	Ld: isa.ClassLoad, Fld: isa.ClassLoad,
	St: isa.ClassStore, Fst: isa.ClassStore,
	Beq: isa.ClassBranch, Bne: isa.ClassBranch,
	Blt: isa.ClassBranch, Bge: isa.ClassBranch,
	J: isa.ClassJump, Jr: isa.ClassJump,
	Call: isa.ClassJump, Ret: isa.ClassJump,
	Halt: isa.ClassNop,
}

// Class returns the ISA class of the opcode.
func (o Opcode) Class() isa.Class {
	if int(o) < NumOpcodes {
		return classOf[o]
	}
	return isa.ClassNop
}

// IsBranch reports whether the opcode is a conditional branch.
func (o Opcode) IsBranch() bool { return o >= Beq && o <= Bge }

// Inst is one static instruction. The operand fields a given opcode
// uses follow the assembly forms documented on the Opcode constants;
// unused register fields hold isa.RegNone.
type Inst struct {
	Op Opcode
	// Rd is the destination register.
	Rd isa.Reg
	// Rs and Rt are source registers. Stores keep the data register in
	// Rt and the base address register in Rs.
	Rs, Rt isa.Reg
	// Imm is the immediate: arithmetic immediates, memory offsets,
	// float bit patterns for Fli, and resolved instruction indices for
	// branch/jump/call targets.
	Imm int64
}

// String renders the instruction in assembly syntax.
func (in Inst) String() string {
	switch {
	case in.Op == Nop || in.Op == Halt || in.Op == Ret:
		return in.Op.String()
	case in.Op == Li || in.Op == Fli:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case in.Op >= Addi && in.Op <= Slti:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs, in.Imm)
	case in.Op == Ld || in.Op == Fld:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs)
	case in.Op == St || in.Op == Fst:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rt, in.Imm, in.Rs)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Rs, in.Rt, in.Imm)
	case in.Op == J || in.Op == Call:
		return fmt.Sprintf("%s @%d", in.Op, in.Imm)
	case in.Op == Jr:
		return fmt.Sprintf("%s %s", in.Op, in.Rs)
	case in.Op == Fsqrt || in.Op == Fneg || in.Op == Fabs ||
		in.Op == Cvtif || in.Op == Cvtfi:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs, in.Rt)
	}
}
