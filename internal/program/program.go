package program

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// CodeBase is the virtual address of the first instruction. Instruction
// i lives at CodeBase + 4*i.
const CodeBase uint64 = 0x1000

// InstBytes is the architectural size of one instruction.
const InstBytes uint64 = 4

// Program is a validated, label-resolved instruction sequence plus the
// metadata the executor needs.
type Program struct {
	// Name identifies the program in reports.
	Name string
	// Code is the instruction sequence; control-flow targets in Imm are
	// instruction indices into Code.
	Code []Inst
	// Labels maps label names to instruction indices (for debugging and
	// the disassembler; execution never consults it).
	Labels map[string]int
}

// PC returns the virtual address of instruction index i.
func PC(i int) uint64 { return CodeBase + uint64(i)*InstBytes }

// Index returns the instruction index of virtual address pc, or -1 if
// pc is not a code address.
func Index(pc uint64) int {
	if pc < CodeBase || (pc-CodeBase)%InstBytes != 0 {
		return -1
	}
	return int((pc - CodeBase) / InstBytes)
}

// Validate checks structural invariants: every control-flow target is a
// valid instruction index, register operands are in range, and the
// program ends in a path to Halt (statically: contains at least one
// Halt).
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q has no instructions", p.Name)
	}
	hasHalt := false
	for i, in := range p.Code {
		if int(in.Op) >= NumOpcodes {
			return fmt.Errorf("%q inst %d: invalid opcode %d", p.Name, i, in.Op)
		}
		if in.Op == Halt {
			hasHalt = true
		}
		if in.Op.IsBranch() || in.Op == J || in.Op == Call {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return fmt.Errorf("%q inst %d (%s): target %d out of range [0,%d)",
					p.Name, i, in, in.Imm, len(p.Code))
			}
		}
		for _, r := range [3]isa.Reg{in.Rd, in.Rs, in.Rt} {
			if r != isa.RegNone && !r.Valid() {
				return fmt.Errorf("%q inst %d (%s): bad register %d", p.Name, i, in, r)
			}
		}
	}
	if !hasHalt {
		return fmt.Errorf("program %q has no halt instruction", p.Name)
	}
	return nil
}

// Disassemble renders the whole program with labels and addresses, one
// instruction per line.
func (p *Program) Disassemble() string {
	byIndex := make(map[int][]string)
	for name, idx := range p.Labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	var b strings.Builder
	for i, in := range p.Code {
		for _, l := range byIndex[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  %#06x  %s\n", PC(i), in)
	}
	return b.String()
}
