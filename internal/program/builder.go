package program

import (
	"fmt"

	"repro/internal/isa"
)

// Builder assembles a Program instruction by instruction, deferring
// label resolution until Build. Emission methods mirror the opcode
// mnemonics; label operands are resolved to instruction indices.
//
// Errors (duplicate or undefined labels) are accumulated and reported
// by Build so kernel code can stay free of error plumbing.
type Builder struct {
	name   string
	code   []Inst
	labels map[string]int
	// fixups records instructions whose Imm must be patched with the
	// index of a label once all labels are known.
	fixups []fixup
	errs   []error
}

type fixup struct {
	inst  int
	label string
}

// NewBuilder returns an empty builder for a program with the given
// name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// Len returns the number of instructions emitted so far (the index the
// next instruction will get).
func (b *Builder) Len() int { return len(b.code) }

// Label binds name to the next emitted instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.code)
}

func (b *Builder) emit(in Inst) {
	b.code = append(b.code, in)
}

func (b *Builder) emitLabelled(in Inst, label string) {
	b.fixups = append(b.fixups, fixup{inst: len(b.code), label: label})
	b.emit(in)
}

// Build resolves labels, validates the program and returns it.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("undefined label %q", f.label))
			continue
		}
		b.code[f.inst].Imm = int64(idx)
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("program %q: %v", b.name, b.errs[0])
	}
	p := &Program{Name: b.name, Code: b.code, Labels: b.labels}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build but panics on error; the workload kernels are
// static and a build failure is a programming bug.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// none is shorthand for an unused operand slot.
const none = isa.RegNone

// Three-operand integer ops.

func (b *Builder) Add(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Add, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Sub(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Sub, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) And(rd, rs, rt isa.Reg) { b.emit(Inst{Op: And, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Or(rd, rs, rt isa.Reg)  { b.emit(Inst{Op: Or, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Xor(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Xor, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Shl(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Shl, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Shr(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Shr, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Sar(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Sar, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Slt(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Slt, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Mul(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Mul, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Div(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Div, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Rem(rd, rs, rt isa.Reg) { b.emit(Inst{Op: Rem, Rd: rd, Rs: rs, Rt: rt}) }

// Immediate integer ops.

func (b *Builder) Addi(rd, rs isa.Reg, imm int64) { b.emit(Inst{Op: Addi, Rd: rd, Rs: rs, Imm: imm}) }
func (b *Builder) Andi(rd, rs isa.Reg, imm int64) { b.emit(Inst{Op: Andi, Rd: rd, Rs: rs, Imm: imm}) }
func (b *Builder) Ori(rd, rs isa.Reg, imm int64)  { b.emit(Inst{Op: Ori, Rd: rd, Rs: rs, Imm: imm}) }
func (b *Builder) Xori(rd, rs isa.Reg, imm int64) { b.emit(Inst{Op: Xori, Rd: rd, Rs: rs, Imm: imm}) }
func (b *Builder) Shli(rd, rs isa.Reg, imm int64) { b.emit(Inst{Op: Shli, Rd: rd, Rs: rs, Imm: imm}) }
func (b *Builder) Shri(rd, rs isa.Reg, imm int64) { b.emit(Inst{Op: Shri, Rd: rd, Rs: rs, Imm: imm}) }
func (b *Builder) Slti(rd, rs isa.Reg, imm int64) { b.emit(Inst{Op: Slti, Rd: rd, Rs: rs, Imm: imm}) }
func (b *Builder) Li(rd isa.Reg, imm int64)       { b.emit(Inst{Op: Li, Rd: rd, Rs: none, Imm: imm}) }

// Mov copies rs into rd (encoded as addi rd, rs, 0).
func (b *Builder) Mov(rd, rs isa.Reg) { b.Addi(rd, rs, 0) }

// Floating-point ops.

func (b *Builder) Fadd(fd, fs, ft isa.Reg) { b.emit(Inst{Op: Fadd, Rd: fd, Rs: fs, Rt: ft}) }
func (b *Builder) Fsub(fd, fs, ft isa.Reg) { b.emit(Inst{Op: Fsub, Rd: fd, Rs: fs, Rt: ft}) }
func (b *Builder) Fmul(fd, fs, ft isa.Reg) { b.emit(Inst{Op: Fmul, Rd: fd, Rs: fs, Rt: ft}) }
func (b *Builder) Fdiv(fd, fs, ft isa.Reg) { b.emit(Inst{Op: Fdiv, Rd: fd, Rs: fs, Rt: ft}) }
func (b *Builder) Fmax(fd, fs, ft isa.Reg) { b.emit(Inst{Op: Fmax, Rd: fd, Rs: fs, Rt: ft}) }
func (b *Builder) Fmin(fd, fs, ft isa.Reg) { b.emit(Inst{Op: Fmin, Rd: fd, Rs: fs, Rt: ft}) }
func (b *Builder) Fsqrt(fd, fs isa.Reg)    { b.emit(Inst{Op: Fsqrt, Rd: fd, Rs: fs, Rt: none}) }
func (b *Builder) Fneg(fd, fs isa.Reg)     { b.emit(Inst{Op: Fneg, Rd: fd, Rs: fs, Rt: none}) }
func (b *Builder) Fabs(fd, fs isa.Reg)     { b.emit(Inst{Op: Fabs, Rd: fd, Rs: fs, Rt: none}) }
func (b *Builder) Flt(rd, fs, ft isa.Reg)  { b.emit(Inst{Op: Flt, Rd: rd, Rs: fs, Rt: ft}) }
func (b *Builder) Cvtif(fd, rs isa.Reg)    { b.emit(Inst{Op: Cvtif, Rd: fd, Rs: rs, Rt: none}) }
func (b *Builder) Cvtfi(rd, fs isa.Reg)    { b.emit(Inst{Op: Cvtfi, Rd: rd, Rs: fs, Rt: none}) }
func (b *Builder) Fli(fd isa.Reg, v float64) {
	b.emit(Inst{Op: Fli, Rd: fd, Rs: none, Imm: int64(float64bits(v))})
}

// Memory ops. Offsets are in bytes; the executor accesses 8-byte words.

func (b *Builder) Ld(rd, base isa.Reg, off int64) { b.emit(Inst{Op: Ld, Rd: rd, Rs: base, Imm: off}) }
func (b *Builder) St(rt, base isa.Reg, off int64) {
	b.emit(Inst{Op: St, Rd: none, Rs: base, Rt: rt, Imm: off})
}
func (b *Builder) Fld(fd, base isa.Reg, off int64) { b.emit(Inst{Op: Fld, Rd: fd, Rs: base, Imm: off}) }
func (b *Builder) Fst(ft, base isa.Reg, off int64) {
	b.emit(Inst{Op: Fst, Rd: none, Rs: base, Rt: ft, Imm: off})
}

// Control flow.

func (b *Builder) Beq(rs, rt isa.Reg, label string) {
	b.emitLabelled(Inst{Op: Beq, Rd: none, Rs: rs, Rt: rt}, label)
}
func (b *Builder) Bne(rs, rt isa.Reg, label string) {
	b.emitLabelled(Inst{Op: Bne, Rd: none, Rs: rs, Rt: rt}, label)
}
func (b *Builder) Blt(rs, rt isa.Reg, label string) {
	b.emitLabelled(Inst{Op: Blt, Rd: none, Rs: rs, Rt: rt}, label)
}
func (b *Builder) Bge(rs, rt isa.Reg, label string) {
	b.emitLabelled(Inst{Op: Bge, Rd: none, Rs: rs, Rt: rt}, label)
}
func (b *Builder) J(label string) {
	b.emitLabelled(Inst{Op: J, Rd: none, Rs: none, Rt: none}, label)
}
func (b *Builder) Jr(rs isa.Reg) { b.emit(Inst{Op: Jr, Rd: none, Rs: rs, Rt: none}) }
func (b *Builder) Call(label string) {
	b.emitLabelled(Inst{Op: Call, Rd: isa.RA, Rs: none, Rt: none}, label)
}
func (b *Builder) Ret() { b.emit(Inst{Op: Ret, Rd: none, Rs: isa.RA, Rt: none}) }

// Misc.

func (b *Builder) Nop()  { b.emit(Inst{Op: Nop, Rd: none, Rs: none, Rt: none}) }
func (b *Builder) Halt() { b.emit(Inst{Op: Halt, Rd: none, Rs: none, Rt: none}) }
