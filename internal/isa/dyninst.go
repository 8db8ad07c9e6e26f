package isa

import "fmt"

// DynInst is one dynamically executed instruction as emitted by the
// functional executor and consumed by every timing model. It carries
// the architectural facts a trace-driven simulator needs: identity
// (PC), dataflow (Dst, Src*), memory behaviour (Addr) and control
// behaviour (Target and the Flags bits).
//
// A record is 32 bytes and stores nothing that its position implies:
// its sequence number is its index in the trace, and the address of
// the next dynamic instruction is that instruction's PC (the trace
// keeps the last record's).
//
// DynInst is a plain value; timing models wrap it in their own
// in-flight records rather than mutating it.
type DynInst struct {
	// PC is the address of the instruction.
	PC uint64
	// Addr is the effective address for loads and stores.
	Addr uint64
	// Target is the actual control-flow target of a taken branch or
	// jump.
	Target uint64
	// Class selects the functional unit and scheduling behaviour.
	Class Class
	// Dst is the destination register, or RegNone.
	Dst Reg
	// Src1, Src2, Src3 are source registers, RegNone when unused.
	// Stores carry their data register in Src3 by convention.
	Src1, Src2, Src3 Reg
	// Flags holds the control-flow outcome bits; read them through
	// Taken, Indirect, IsCall and IsRet.
	Flags Flags
}

// Flags packs a control instruction's outcome into one byte. The bit
// values are also the trace file's on-disk encoding.
type Flags uint8

const (
	// FlagTaken: the branch was taken; jumps are always taken.
	FlagTaken Flags = 1 << iota
	// FlagIndirect: the jump's target comes from a register (jr, ret),
	// so the front end needs a BTB or return stack to predict it.
	FlagIndirect
	// FlagCall and FlagRet mark call/return jumps for return-stack
	// maintenance.
	FlagCall
	FlagRet

	// FlagsMask covers every defined flag bit.
	FlagsMask = FlagTaken | FlagIndirect | FlagCall | FlagRet
)

// Taken reports the actual outcome of a branch; jumps are always
// taken.
func (d *DynInst) Taken() bool { return d.Flags&FlagTaken != 0 }

// Indirect reports a register-target jump (jr, ret).
func (d *DynInst) Indirect() bool { return d.Flags&FlagIndirect != 0 }

// IsCall reports a call jump.
func (d *DynInst) IsCall() bool { return d.Flags&FlagCall != 0 }

// IsRet reports a return jump.
func (d *DynInst) IsRet() bool { return d.Flags&FlagRet != 0 }

// HasDst reports whether the instruction produces a register value.
// R0 writes are architectural no-ops and create no dependence.
func (d *DynInst) HasDst() bool { return d.Dst.Valid() && d.Dst != R0 }

// Sources appends the instruction's real source registers (valid,
// non-R0) to buf and returns it. buf may be nil; callers typically pass
// a small stack-allocated slice to avoid heap traffic.
func (d *DynInst) Sources(buf []Reg) []Reg {
	for _, r := range [3]Reg{d.Src1, d.Src2, d.Src3} {
		if r.Valid() && r != R0 {
			buf = append(buf, r)
		}
	}
	return buf
}

// IsLoad reports whether the instruction is a load.
func (d *DynInst) IsLoad() bool { return d.Class == ClassLoad }

// IsStore reports whether the instruction is a store.
func (d *DynInst) IsStore() bool { return d.Class == ClassStore }

// IsCtrl reports whether the instruction can redirect fetch.
func (d *DynInst) IsCtrl() bool { return d.Class.IsCtrl() }

// String renders the dynamic instruction for debug output. The record
// does not know its sequence number; callers that hold it print it.
func (d *DynInst) String() string {
	switch d.Class {
	case ClassLoad:
		return fmt.Sprintf("pc=%#x load %s <- [%#x]", d.PC, d.Dst, d.Addr)
	case ClassStore:
		return fmt.Sprintf("pc=%#x store [%#x] <- %s", d.PC, d.Addr, d.Src3)
	case ClassBranch:
		return fmt.Sprintf("pc=%#x branch taken=%v target=%#x", d.PC, d.Taken(), d.Target)
	case ClassJump:
		return fmt.Sprintf("pc=%#x jump target=%#x", d.PC, d.Target)
	default:
		return fmt.Sprintf("pc=%#x %s %s <- %s,%s", d.PC, d.Class, d.Dst, d.Src1, d.Src2)
	}
}
