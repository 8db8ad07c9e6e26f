package program

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// StackBase is the initial value of SP. Stacks grow down.
const StackBase uint64 = 0x7fff_f000

// pageShift/pageWords size the sparse memory: 4 KiB pages of 512
// 8-byte words.
const (
	pageShift = 12
	pageWords = 1 << (pageShift - 3)
)

type page [pageWords]uint64

// Memory is a sparse 64-bit word-addressable memory. Addresses are
// aligned down to 8 bytes; untouched memory reads as zero.
type Memory struct {
	pages map[uint64]*page
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{pages: make(map[uint64]*page)} }

// Load reads the 8-byte word containing addr.
func (m *Memory) Load(addr uint64) uint64 {
	p, ok := m.pages[addr>>pageShift]
	if !ok {
		return 0
	}
	return p[(addr>>3)&(pageWords-1)]
}

// Store writes the 8-byte word containing addr.
func (m *Memory) Store(addr, val uint64) {
	key := addr >> pageShift
	p, ok := m.pages[key]
	if !ok {
		p = new(page)
		m.pages[key] = p
	}
	p[(addr>>3)&(pageWords-1)] = val
}

// Footprint returns the number of distinct pages touched.
func (m *Memory) Footprint() int { return len(m.pages) }

func float64bits(v float64) uint64     { return math.Float64bits(v) }
func float64frombits(b uint64) float64 { return math.Float64frombits(b) }

// Executor runs a Program functionally, emitting one isa.DynInst per
// executed instruction. It is single-use: create one per trace.
type Executor struct {
	prog   *Program
	regs   [isa.NumRegs]uint64
	mem    *Memory
	pc     int // instruction index
	seq    uint64
	halted bool
}

// NewExecutor returns an executor positioned at the first instruction
// with SP initialised and all other registers zero.
func NewExecutor(p *Program) *Executor {
	e := &Executor{prog: p, mem: NewMemory()}
	e.regs[isa.SP] = StackBase
	return e
}

// Reg returns the current value of an architectural register.
func (e *Executor) Reg(r isa.Reg) uint64 { return e.regs[r] }

// FReg returns the float interpretation of a register value.
func (e *Executor) FReg(r isa.Reg) float64 { return float64frombits(e.regs[r]) }

// Mem returns the executor's memory, usable for pre-initialising data
// structures or inspecting results after a run.
func (e *Executor) Mem() *Memory { return e.mem }

// Halted reports whether the program has executed Halt.
func (e *Executor) Halted() bool { return e.halted }

// Executed returns the number of dynamic instructions emitted so far:
// the sequence number of the next one.
func (e *Executor) Executed() uint64 { return e.seq }

// PC returns the address of the next instruction to execute: the
// next-PC of the last one executed.
func (e *Executor) PC() uint64 { return PC(e.pc) }

func (e *Executor) setReg(r isa.Reg, v uint64) {
	if r != isa.R0 && r.Valid() {
		e.regs[r] = v
	}
}

// Step executes one instruction and returns its dynamic record. ok is
// false when the program has halted (no instruction is executed).
// Step panics on a malformed program (PC out of range); Validate
// prevents that for programs built through Builder.
func (e *Executor) Step() (d isa.DynInst, ok bool) {
	if e.halted {
		return isa.DynInst{}, false
	}
	if e.pc < 0 || e.pc >= len(e.prog.Code) {
		panic(fmt.Sprintf("program %q: pc index %d out of range", e.prog.Name, e.pc))
	}
	in := e.prog.Code[e.pc]
	if in.Op == Halt {
		e.halted = true
		return isa.DynInst{}, false
	}

	d = isa.DynInst{
		PC:    PC(e.pc),
		Class: in.Op.Class(),
		Dst:   isa.RegNone,
		Src1:  isa.RegNone,
		Src2:  isa.RegNone,
		Src3:  isa.RegNone,
	}
	next := e.pc + 1

	rs, rt := e.regs[in.Rs&63], e.regs[in.Rt&63]
	switch in.Op {
	case Nop:
		// nothing

	case Add, Sub, And, Or, Xor, Shl, Shr, Sar, Slt, Mul, Div, Rem:
		d.Dst, d.Src1, d.Src2 = in.Rd, in.Rs, in.Rt
		e.setReg(in.Rd, intOp(in.Op, rs, rt))

	case Addi, Andi, Ori, Xori, Shli, Shri, Slti:
		d.Dst, d.Src1 = in.Rd, in.Rs
		e.setReg(in.Rd, intOp(immToReg(in.Op), rs, uint64(in.Imm)))

	case Li:
		d.Dst = in.Rd
		e.setReg(in.Rd, uint64(in.Imm))

	case Fli:
		d.Dst = in.Rd
		e.setReg(in.Rd, uint64(in.Imm))

	case Fadd, Fsub, Fmul, Fdiv, Fmax, Fmin:
		d.Dst, d.Src1, d.Src2 = in.Rd, in.Rs, in.Rt
		e.setReg(in.Rd, float64bits(fpOp(in.Op, float64frombits(rs), float64frombits(rt))))

	case Fsqrt:
		d.Dst, d.Src1 = in.Rd, in.Rs
		e.setReg(in.Rd, float64bits(math.Sqrt(math.Abs(float64frombits(rs)))))

	case Fneg:
		d.Dst, d.Src1 = in.Rd, in.Rs
		e.setReg(in.Rd, float64bits(-float64frombits(rs)))

	case Fabs:
		d.Dst, d.Src1 = in.Rd, in.Rs
		e.setReg(in.Rd, float64bits(math.Abs(float64frombits(rs))))

	case Flt:
		d.Dst, d.Src1, d.Src2 = in.Rd, in.Rs, in.Rt
		var v uint64
		if float64frombits(rs) < float64frombits(rt) {
			v = 1
		}
		e.setReg(in.Rd, v)

	case Cvtif:
		d.Dst, d.Src1 = in.Rd, in.Rs
		e.setReg(in.Rd, float64bits(float64(int64(rs))))

	case Cvtfi:
		d.Dst, d.Src1 = in.Rd, in.Rs
		f := float64frombits(rs)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0
		}
		e.setReg(in.Rd, uint64(int64(f)))

	case Ld, Fld:
		d.Dst, d.Src1 = in.Rd, in.Rs
		d.Addr = (rs + uint64(in.Imm)) &^ 7
		e.setReg(in.Rd, e.mem.Load(d.Addr))

	case St, Fst:
		d.Src1, d.Src3 = in.Rs, in.Rt
		d.Addr = (rs + uint64(in.Imm)) &^ 7
		e.mem.Store(d.Addr, rt)

	case Beq, Bne, Blt, Bge:
		d.Src1, d.Src2 = in.Rs, in.Rt
		d.Target = PC(int(in.Imm))
		if branchTaken(in.Op, rs, rt) {
			d.Flags = isa.FlagTaken
			next = int(in.Imm)
		}

	case J:
		d.Flags, d.Target = isa.FlagTaken, PC(int(in.Imm))
		next = int(in.Imm)

	case Jr:
		d.Src1 = in.Rs
		d.Flags, d.Target = isa.FlagTaken|isa.FlagIndirect, rs
		idx := Index(rs)
		if idx < 0 || idx >= len(e.prog.Code) {
			panic(fmt.Sprintf("program %q: jr to non-code address %#x", e.prog.Name, rs))
		}
		next = idx

	case Call:
		d.Dst = isa.RA
		d.Flags, d.Target = isa.FlagTaken|isa.FlagCall, PC(int(in.Imm))
		e.setReg(isa.RA, PC(e.pc+1))
		next = int(in.Imm)

	case Ret:
		d.Src1 = isa.RA
		ra := e.regs[isa.RA]
		d.Flags, d.Target = isa.FlagTaken|isa.FlagIndirect|isa.FlagRet, ra
		idx := Index(ra)
		if idx < 0 || idx >= len(e.prog.Code) {
			panic(fmt.Sprintf("program %q: ret to non-code address %#x", e.prog.Name, ra))
		}
		next = idx
	}

	e.pc = next
	e.seq++
	return d, true
}

// Run executes up to max dynamic instructions (0 means unbounded),
// passing each record to sink. sink may return false to stop early.
// Run returns the number of instructions executed.
//
// The record sink receives is reused for every instruction of the run
// (one allocation per Run, none per instruction): a sink that keeps an
// instruction must copy *d.
func (e *Executor) Run(max uint64, sink func(*isa.DynInst) bool) uint64 {
	var (
		n  uint64
		d  isa.DynInst
		ok bool
	)
	for max == 0 || n < max {
		if d, ok = e.Step(); !ok {
			break
		}
		n++
		if sink != nil && !sink(&d) {
			break
		}
	}
	return n
}

func immToReg(op Opcode) Opcode {
	switch op {
	case Addi:
		return Add
	case Andi:
		return And
	case Ori:
		return Or
	case Xori:
		return Xor
	case Shli:
		return Shl
	case Shri:
		return Shr
	case Slti:
		return Slt
	}
	return op
}

func intOp(op Opcode, a, b uint64) uint64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (b & 63)
	case Shr:
		return a >> (b & 63)
	case Sar:
		return uint64(int64(a) >> (b & 63))
	case Slt:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) / int64(b))
	case Rem:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	}
	return 0
}

func fpOp(op Opcode, a, b float64) float64 {
	switch op {
	case Fadd:
		return a + b
	case Fsub:
		return a - b
	case Fmul:
		return a * b
	case Fdiv:
		if b == 0 {
			return 0
		}
		return a / b
	case Fmax:
		return math.Max(a, b)
	case Fmin:
		return math.Min(a, b)
	}
	return 0
}

func branchTaken(op Opcode, a, b uint64) bool {
	switch op {
	case Beq:
		return a == b
	case Bne:
		return a != b
	case Blt:
		return int64(a) < int64(b)
	case Bge:
		return int64(a) >= int64(b)
	}
	return false
}

// RunUntil executes instructions until the executor is about to execute
// instruction index idx (or has halted), returning the number executed.
// Use it to skip a program's initialisation phase before tracing.
func (e *Executor) RunUntil(idx int) uint64 {
	var n uint64
	for !e.halted && e.pc != idx {
		if _, ok := e.Step(); !ok {
			break
		}
		n++
	}
	return n
}
