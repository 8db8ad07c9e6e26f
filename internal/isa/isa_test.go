package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{R0, "r0"},
		{R7, "r7"},
		{R28, "r28"},
		{SP, "sp"},
		{FP, "fp"},
		{RA, "ra"},
		{F0, "f0"},
		{F31, "f31"},
		{RegNone, "-"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRegClassPredicates(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		if r.IsInt() == r.IsFP() {
			t.Fatalf("register %s is both or neither int/fp", r)
		}
		if !r.Valid() {
			t.Fatalf("register %s should be valid", r)
		}
	}
	if RegNone.Valid() {
		t.Error("RegNone must not be valid")
	}
	if !F0.IsFP() || F0.IsInt() {
		t.Error("F0 must be a floating-point register")
	}
	if !RA.IsInt() {
		t.Error("RA (r31) must be an integer register")
	}
}

func TestRegBoundaries(t *testing.T) {
	if RA != Reg(31) {
		t.Errorf("RA = %d, want 31", RA)
	}
	if F0 != Reg(32) {
		t.Errorf("F0 = %d, want 32", F0)
	}
	if F31 != Reg(63) {
		t.Errorf("F31 = %d, want 63", F31)
	}
	if RegNone != Reg(NumRegs) {
		t.Errorf("RegNone = %d, want %d", RegNone, NumRegs)
	}
}

func TestClassString(t *testing.T) {
	seen := make(map[string]Class)
	for c := Class(0); int(c) < NumClasses; c++ {
		s := c.String()
		if s == "" {
			t.Fatalf("class %d has empty name", c)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("classes %d and %d share name %q", prev, c, s)
		}
		seen[s] = c
	}
}

func TestClassPredicates(t *testing.T) {
	if !ClassLoad.IsMem() || !ClassStore.IsMem() {
		t.Error("loads and stores must be memory class")
	}
	if ClassIntAlu.IsMem() {
		t.Error("int alu is not a memory class")
	}
	if !ClassBranch.IsCtrl() || !ClassJump.IsCtrl() {
		t.Error("branches and jumps must be control class")
	}
	if ClassLoad.IsCtrl() {
		t.Error("load is not control")
	}
	for _, c := range []Class{ClassFPAlu, ClassFPMul, ClassFPDiv} {
		if !c.IsFP() {
			t.Errorf("%s must be FP", c)
		}
	}
	if ClassIntMul.IsFP() {
		t.Error("imul is not FP")
	}
}

func TestDefaultLatenciesComplete(t *testing.T) {
	for c := 0; c < NumClasses; c++ {
		lat := DefaultLatencies[c]
		if lat.Cycles < 1 {
			t.Errorf("class %s has latency %d < 1", Class(c), lat.Cycles)
		}
	}
	if DefaultLatencies[ClassIntDiv].Pipelined {
		t.Error("integer divide must be unpipelined")
	}
	if !DefaultLatencies[ClassIntAlu].Pipelined {
		t.Error("int alu must be pipelined")
	}
	if DefaultLatencies[ClassIntAlu].Cycles != 1 {
		t.Error("int alu must be single cycle")
	}
}

func TestDynInstSources(t *testing.T) {
	d := DynInst{Src1: R1, Src2: RegNone, Src3: R0}
	got := d.Sources(nil)
	if len(got) != 1 || got[0] != R1 {
		t.Fatalf("Sources = %v, want [r1]", got)
	}

	d = DynInst{Src1: R1, Src2: F2, Src3: R3}
	got = d.Sources(make([]Reg, 0, 3))
	if len(got) != 3 {
		t.Fatalf("Sources = %v, want three entries", got)
	}

	d = DynInst{Src1: R0, Src2: R0, Src3: RegNone}
	if got = d.Sources(nil); len(got) != 0 {
		t.Fatalf("R0 sources must not appear, got %v", got)
	}
}

func TestDynInstHasDst(t *testing.T) {
	if (&DynInst{Dst: R0}).HasDst() {
		t.Error("write to R0 must not count as a destination")
	}
	if (&DynInst{Dst: RegNone}).HasDst() {
		t.Error("RegNone must not count as a destination")
	}
	if !(&DynInst{Dst: R5}).HasDst() {
		t.Error("R5 destination must count")
	}
}

// Property: Sources never returns R0 or invalid registers and never
// returns more than three entries.
func TestDynInstSourcesProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		d := DynInst{Src1: Reg(a % 70), Src2: Reg(b % 70), Src3: Reg(c % 70)}
		srcs := d.Sources(nil)
		if len(srcs) > 3 {
			return false
		}
		for _, r := range srcs {
			if !r.Valid() || r == R0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDynInstString(t *testing.T) {
	variants := []DynInst{
		{Class: ClassLoad, Dst: R1, Addr: 0x100},
		{Class: ClassStore, Src3: R2, Addr: 0x200},
		{Class: ClassBranch, Flags: FlagTaken, Target: 0x40},
		{Class: ClassJump, Target: 0x80},
		{Class: ClassIntAlu, Dst: R3, Src1: R1, Src2: R2},
	}
	for _, d := range variants {
		if d.String() == "" {
			t.Errorf("empty String for class %s", d.Class)
		}
	}
}

// Every captured trace holds one DynInst per dynamic instruction, so
// the record's size is the simulator's memory footprint per traced
// instruction.
func TestDynInstSize(t *testing.T) {
	if got := unsafe.Sizeof(DynInst{}); got != 32 {
		t.Errorf("DynInst is %d bytes, want 32", got)
	}
}

func TestDynInstFlags(t *testing.T) {
	for f := Flags(0); f <= FlagsMask; f++ {
		d := DynInst{Flags: f}
		got := [4]bool{d.Taken(), d.Indirect(), d.IsCall(), d.IsRet()}
		want := [4]bool{f&1 != 0, f&2 != 0, f&4 != 0, f&8 != 0}
		if got != want {
			t.Errorf("flags %#x: Taken/Indirect/IsCall/IsRet = %v, want %v", f, got, want)
		}
	}
}
