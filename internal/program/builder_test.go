package program

import (
	"testing"

	"repro/internal/isa"
)

// TestDisassemble pins the listing examples/tracetool prints: labels on
// their own lines, then each instruction's address and its assembly
// form, with resolved targets shown as instruction indices.
func TestDisassemble(t *testing.T) {
	b := NewBuilder("dis")
	b.Label("start")
	b.Li(isa.R1, 100)
	b.Li(isa.R2, 0x10)
	b.Fli(isa.F1, 1.5)
	b.Label("loop")
	b.Ld(isa.R3, isa.R1, 8)
	b.St(isa.R3, isa.R2, 0)
	b.Fld(isa.F2, isa.R1, 16)
	b.Fst(isa.F2, isa.SP, -8)
	b.Add(isa.R4, isa.R3, isa.R2)
	b.Addi(isa.R1, isa.R1, 8)
	b.Bne(isa.R1, isa.R0, "loop")
	b.Call("sub")
	b.J("end")
	b.Label("sub")
	b.Fadd(isa.F3, isa.F1, isa.F2)
	b.Ret()
	b.Label("end")
	b.Halt()
	p := b.MustBuild()
	if p.Labels["start"] != 0 || p.Labels["loop"] != 3 || p.Labels["sub"] != 12 || p.Labels["end"] != 14 {
		t.Errorf("labels %v, want start 0, loop 3, sub 12, end 14", p.Labels)
	}
	const want = `start:
  0x001000  li r1, 100
  0x001004  li r2, 16
  0x001008  fli f1, 4609434218613702656
loop:
  0x00100c  ld r3, 8(r1)
  0x001010  st r3, 0(r2)
  0x001014  fld f2, 16(r1)
  0x001018  fst f2, -8(sp)
  0x00101c  add r4, r3, r2
  0x001020  addi r1, r1, 8
  0x001024  bne r1, r0, @3
  0x001028  call @12
  0x00102c  j @14
sub:
  0x001030  fadd f3, f1, f2
  0x001034  ret
end:
  0x001038  halt
`
	if got := p.Disassemble(); got != want {
		t.Errorf("disassembly:\n%s\nwant:\n%s", got, want)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label must fail")
	}

	b = NewBuilder("undef")
	b.J("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("undefined label must fail")
	}

	b = NewBuilder("empty")
	if _, err := b.Build(); err == nil {
		t.Error("empty program must fail")
	}
}

func TestValidateTargets(t *testing.T) {
	p := &Program{Name: "bad", Code: []Inst{
		{Op: J, Imm: 99},
		{Op: Halt},
	}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range target must fail validation")
	}
}

func TestPCIndexRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		if got := Index(PC(i)); got != i {
			t.Fatalf("Index(PC(%d)) = %d", i, got)
		}
	}
	if Index(CodeBase-4) != -1 {
		t.Error("below code base must be -1")
	}
	if Index(CodeBase+2) != -1 {
		t.Error("misaligned must be -1")
	}
}
