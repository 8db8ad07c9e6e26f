package program

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// runToHalt executes p to completion (capped) and returns the executor
// and the emitted trace.
func runToHalt(t *testing.T, p *Program, cap uint64) (*Executor, []isa.DynInst) {
	t.Helper()
	e := NewExecutor(p)
	var tr []isa.DynInst
	n := e.Run(cap, func(d *isa.DynInst) bool {
		tr = append(tr, *d)
		return true
	})
	if n == cap && !e.Halted() {
		t.Fatalf("program %q did not halt within %d instructions", p.Name, cap)
	}
	return e, tr
}

func TestExecArithmetic(t *testing.T) {
	b := NewBuilder("arith")
	b.Li(isa.R1, 10)
	b.Li(isa.R2, 3)
	b.Add(isa.R3, isa.R1, isa.R2)  // 13
	b.Sub(isa.R4, isa.R1, isa.R2)  // 7
	b.Mul(isa.R5, isa.R1, isa.R2)  // 30
	b.Div(isa.R6, isa.R1, isa.R2)  // 3
	b.Rem(isa.R7, isa.R1, isa.R2)  // 1
	b.And(isa.R8, isa.R1, isa.R2)  // 2
	b.Or(isa.R9, isa.R1, isa.R2)   // 11
	b.Xor(isa.R10, isa.R1, isa.R2) // 9
	b.Shli(isa.R11, isa.R1, 2)     // 40
	b.Shri(isa.R12, isa.R1, 1)     // 5
	b.Slt(isa.R13, isa.R2, isa.R1) // 1
	b.Slt(isa.R14, isa.R1, isa.R2) // 0
	b.Halt()
	p := b.MustBuild()

	e, _ := runToHalt(t, p, 100)
	want := map[isa.Reg]uint64{
		isa.R3: 13, isa.R4: 7, isa.R5: 30, isa.R6: 3, isa.R7: 1,
		isa.R8: 2, isa.R9: 11, isa.R10: 9, isa.R11: 40, isa.R12: 5,
		isa.R13: 1, isa.R14: 0,
	}
	for r, v := range want {
		if got := e.Reg(r); got != v {
			t.Errorf("%s = %d, want %d", r, got, v)
		}
	}
}

func TestExecSignedOps(t *testing.T) {
	b := NewBuilder("signed")
	b.Li(isa.R1, -12)
	b.Li(isa.R2, 5)
	b.Div(isa.R3, isa.R1, isa.R2) // -2
	b.Rem(isa.R4, isa.R1, isa.R2) // -2
	b.Sar(isa.R5, isa.R1, isa.R2) // -12 >> 5 = -1
	b.Slt(isa.R6, isa.R1, isa.R2) // 1
	b.Slti(isa.R7, isa.R1, -20)   // 0
	b.Div(isa.R8, isa.R2, isa.R0) // x/0 = 0
	b.Rem(isa.R9, isa.R2, isa.R0) // x%0 = 0
	b.Halt()
	e, _ := runToHalt(t, b.MustBuild(), 100)
	checks := []struct {
		r isa.Reg
		v int64
	}{
		{isa.R3, -2}, {isa.R4, -2}, {isa.R5, -1},
		{isa.R6, 1}, {isa.R7, 0}, {isa.R8, 0}, {isa.R9, 0},
	}
	for _, c := range checks {
		if got := int64(e.Reg(c.r)); got != c.v {
			t.Errorf("%s = %d, want %d", c.r, got, c.v)
		}
	}
}

func TestExecR0Immutable(t *testing.T) {
	b := NewBuilder("r0")
	b.Li(isa.R0, 99)
	b.Addi(isa.R0, isa.R0, 7)
	b.Add(isa.R1, isa.R0, isa.R0)
	b.Halt()
	e, _ := runToHalt(t, b.MustBuild(), 10)
	if e.Reg(isa.R0) != 0 {
		t.Errorf("R0 = %d, want 0", e.Reg(isa.R0))
	}
	if e.Reg(isa.R1) != 0 {
		t.Errorf("R1 = %d, want 0", e.Reg(isa.R1))
	}
}

func TestExecLoop(t *testing.T) {
	// Sum 1..100 = 5050.
	b := NewBuilder("loop")
	b.Li(isa.R1, 1)   // i
	b.Li(isa.R2, 0)   // sum
	b.Li(isa.R3, 100) // limit
	b.Label("loop")
	b.Add(isa.R2, isa.R2, isa.R1)
	b.Addi(isa.R1, isa.R1, 1)
	b.Bge(isa.R3, isa.R1, "loop")
	b.Halt()
	e, tr := runToHalt(t, b.MustBuild(), 1000)
	if got := e.Reg(isa.R2); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
	// Exactly 100 loop iterations: branch taken 99 times, not taken once.
	taken, notTaken := 0, 0
	for _, d := range tr {
		if d.Class == isa.ClassBranch {
			if d.Taken() {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if taken != 99 || notTaken != 1 {
		t.Errorf("branch outcomes = %d taken / %d not, want 99/1", taken, notTaken)
	}
}

func TestExecMemory(t *testing.T) {
	b := NewBuilder("mem")
	base := int64(0x10_0000)
	b.Li(isa.R1, base)
	b.Li(isa.R2, 42)
	b.St(isa.R2, isa.R1, 0)
	b.St(isa.R2, isa.R1, 8)
	b.Ld(isa.R3, isa.R1, 0)
	b.Ld(isa.R4, isa.R1, 16) // untouched => 0
	b.Halt()
	e, tr := runToHalt(t, b.MustBuild(), 100)
	if e.Reg(isa.R3) != 42 {
		t.Errorf("loaded %d, want 42", e.Reg(isa.R3))
	}
	if e.Reg(isa.R4) != 0 {
		t.Errorf("untouched memory read %d, want 0", e.Reg(isa.R4))
	}
	// Store records carry the data register in Src3 and base in Src1.
	for _, d := range tr {
		if d.Class == isa.ClassStore {
			if d.Src3 != isa.R2 || d.Src1 != isa.R1 {
				t.Errorf("store operands src1=%s src3=%s, want r1/r2", d.Src1, d.Src3)
			}
			if d.Addr < uint64(base) || d.Addr > uint64(base)+8 {
				t.Errorf("store addr %#x out of expected range", d.Addr)
			}
		}
	}
}

func TestExecUnalignedAccessAlignsDown(t *testing.T) {
	b := NewBuilder("align")
	b.Li(isa.R1, 0x10_0003) // misaligned
	b.Li(isa.R2, 7)
	b.St(isa.R2, isa.R1, 0)
	b.Li(isa.R3, 0x10_0000)
	b.Ld(isa.R4, isa.R3, 0)
	b.Halt()
	e, _ := runToHalt(t, b.MustBuild(), 10)
	if e.Reg(isa.R4) != 7 {
		t.Errorf("aligned-down store not visible: got %d, want 7", e.Reg(isa.R4))
	}
}

func TestExecFloat(t *testing.T) {
	b := NewBuilder("float")
	b.Fli(isa.F1, 2.5)
	b.Fli(isa.F2, 4.0)
	b.Fadd(isa.F3, isa.F1, isa.F2)  // 6.5
	b.Fmul(isa.F4, isa.F1, isa.F2)  // 10
	b.Fdiv(isa.F5, isa.F2, isa.F1)  // 1.6
	b.Fsqrt(isa.F6, isa.F2)         // 2
	b.Fsub(isa.F7, isa.F1, isa.F2)  // -1.5
	b.Fabs(isa.F8, isa.F7)          // 1.5
	b.Fneg(isa.F9, isa.F1)          // -2.5
	b.Fmax(isa.F10, isa.F1, isa.F2) // 4
	b.Fmin(isa.F11, isa.F1, isa.F2) // 2.5
	b.Flt(isa.R1, isa.F1, isa.F2)   // 1
	b.Cvtfi(isa.R2, isa.F4)         // 10
	b.Li(isa.R3, 3)
	b.Cvtif(isa.F12, isa.R3) // 3.0
	b.Halt()
	e, _ := runToHalt(t, b.MustBuild(), 100)
	fchecks := []struct {
		r isa.Reg
		v float64
	}{
		{isa.F3, 6.5}, {isa.F4, 10}, {isa.F5, 1.6}, {isa.F6, 2},
		{isa.F7, -1.5}, {isa.F8, 1.5}, {isa.F9, -2.5},
		{isa.F10, 4}, {isa.F11, 2.5}, {isa.F12, 3},
	}
	for _, c := range fchecks {
		if got := e.FReg(c.r); got != c.v {
			t.Errorf("%s = %v, want %v", c.r, got, c.v)
		}
	}
	if e.Reg(isa.R1) != 1 {
		t.Errorf("flt = %d, want 1", e.Reg(isa.R1))
	}
	if e.Reg(isa.R2) != 10 {
		t.Errorf("cvtfi = %d, want 10", e.Reg(isa.R2))
	}
}

func TestExecCallRet(t *testing.T) {
	// main: r1 = f(5); f(x) doubles its argument in r1.
	b := NewBuilder("call")
	b.Li(isa.R1, 5)
	b.Call("double")
	b.Addi(isa.R2, isa.R1, 100) // 110
	b.Halt()
	b.Label("double")
	b.Add(isa.R1, isa.R1, isa.R1)
	b.Ret()
	e, tr := runToHalt(t, b.MustBuild(), 100)
	if e.Reg(isa.R2) != 110 {
		t.Errorf("after call, r2 = %d, want 110", e.Reg(isa.R2))
	}
	// The call must record RA as a destination, ret as a source.
	var sawCall, sawRet bool
	for _, d := range tr {
		if d.Class == isa.ClassJump && d.Dst == isa.RA {
			sawCall = true
		}
		if d.Class == isa.ClassJump && d.Src1 == isa.RA {
			sawRet = true
		}
	}
	if !sawCall || !sawRet {
		t.Errorf("call/ret dataflow not recorded (call=%v ret=%v)", sawCall, sawRet)
	}
}

func TestExecJr(t *testing.T) {
	b := NewBuilder("jr")
	b.Li(isa.R2, 0)
	// Compute target address of label "done" at build time using a
	// Li of the PC; simplest: jump over an instruction via jr.
	b.Li(isa.R1, int64(PC(4))) // address of the Li r2,1... skip next inst
	b.Jr(isa.R1)
	b.Li(isa.R2, 99) // skipped
	b.Li(isa.R3, 7)
	b.Halt()
	e, _ := runToHalt(t, b.MustBuild(), 10)
	if e.Reg(isa.R2) != 0 || e.Reg(isa.R3) != 7 {
		t.Errorf("jr skipped wrong: r2=%d r3=%d", e.Reg(isa.R2), e.Reg(isa.R3))
	}
}

func TestExecTraceSequencing(t *testing.T) {
	b := NewBuilder("seq")
	for i := 0; i < 5; i++ {
		b.Addi(isa.R1, isa.R1, 1)
	}
	b.Halt()
	e, tr := runToHalt(t, b.MustBuild(), 100)
	if len(tr) != 5 {
		t.Fatalf("trace length %d, want 5", len(tr))
	}
	for i, d := range tr {
		if d.PC != PC(i) {
			t.Errorf("inst %d has pc %#x, want %#x", i, d.PC, PC(i))
		}
	}
	// The last instruction's next-PC is the halt's address.
	if e.Executed() != 5 || e.PC() != PC(5) {
		t.Errorf("executor at seq %d pc %#x, want 5 and %#x", e.Executed(), e.PC(), PC(5))
	}
}

func TestExecDeterminism(t *testing.T) {
	src := `
		li r1, 12345
		li r2, 0
		li r4, 50
	loop:
		mul r1, r1, r1
		shri r1, r1, 3
		xori r1, r1, 0x55
		add r2, r2, r1
		addi r4, r4, -1
		bne r4, r0, loop
		halt`
	p := MustAssemble("det", src)
	run := func() (uint64, []isa.DynInst) {
		e := NewExecutor(p)
		var tr []isa.DynInst
		e.Run(0, func(d *isa.DynInst) bool { tr = append(tr, *d); return true })
		return e.Reg(isa.R2), tr
	}
	v1, t1 := run()
	v2, t2 := run()
	if v1 != v2 {
		t.Fatalf("nondeterministic result: %d vs %d", v1, v2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("nondeterministic trace length: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestExecRunCap(t *testing.T) {
	src := `
	loop:
		addi r1, r1, 1
		j loop
		halt`
	p := MustAssemble("cap", src)
	e := NewExecutor(p)
	n := e.Run(1000, nil)
	if n != 1000 {
		t.Errorf("ran %d instructions, want cap 1000", n)
	}
	if e.Halted() {
		t.Error("must not report halted when stopped by cap")
	}
}

func TestExecSinkEarlyStop(t *testing.T) {
	src := `
	loop:
		addi r1, r1, 1
		j loop
		halt`
	p := MustAssemble("stop", src)
	e := NewExecutor(p)
	count := 0
	n := e.Run(0, func(*isa.DynInst) bool { count++; return count < 7 })
	if n != 7 || count != 7 {
		t.Errorf("early stop ran %d/%d, want 7", n, count)
	}
}

// TestRunNoAllocsPerInst pins Executor.Run at zero allocations per
// instruction, with and without a sink: the record handed to the sink
// is reused, so a run allocates at most once however long it is.
// Trace capture runs every instruction of every workload through here.
func TestRunNoAllocsPerInst(t *testing.T) {
	src := `
	loop:
		ld r2, 0(r1)
		addi r2, r2, 1
		st r2, 0(r1)
		j loop
		halt`
	e := NewExecutor(MustAssemble("allocs", src))
	e.Run(8, nil) // first touch of the data page
	var last isa.DynInst
	copySink := func(d *isa.DynInst) bool { last = *d; return true }
	const insts = 1000
	for _, tc := range []struct {
		name string
		sink func(*isa.DynInst) bool
	}{{"copying sink", copySink}, {"nil sink", nil}} {
		allocs := testing.AllocsPerRun(20, func() {
			if n := e.Run(insts, tc.sink); n != insts {
				t.Fatalf("ran %d instructions, want %d", n, insts)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: %.0f allocations per %d-instruction run, want at most 1", tc.name, allocs, insts)
		}
	}
	if last == (isa.DynInst{}) {
		t.Error("copying sink saw no instructions")
	}
}

func TestMemorySparse(t *testing.T) {
	m := NewMemory()
	if m.Load(0xdead000) != 0 {
		t.Error("fresh memory must read zero")
	}
	m.Store(0x1000, 1)
	m.Store(0x2000, 2)
	m.Store(0x1008, 3)
	if m.Footprint() != 2 {
		t.Errorf("footprint %d pages, want 2", m.Footprint())
	}
	if m.Load(0x1000) != 1 || m.Load(0x2000) != 2 || m.Load(0x1008) != 3 {
		t.Error("stored values not read back")
	}
}

// Property: memory behaves as a map of aligned words.
func TestMemoryQuick(t *testing.T) {
	m := NewMemory()
	shadow := make(map[uint64]uint64)
	f := func(addr, val uint64) bool {
		addr &= 0xffffff8 // keep footprint bounded, aligned
		m.Store(addr, val)
		shadow[addr] = val
		for a, v := range shadow {
			if m.Load(a) != v {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary arithmetic programs produce identical traces on
// repeated execution (determinism over a randomised program).
func TestExecDeterminismQuick(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		b := NewBuilder("q")
		b.Li(isa.R1, int64(seed|1))
		n := int(steps%32) + 1
		for i := 0; i < n; i++ {
			switch i % 4 {
			case 0:
				b.Mul(isa.R1, isa.R1, isa.R1)
			case 1:
				b.Addi(isa.R1, isa.R1, int64(seed%97))
			case 2:
				b.Xori(isa.R1, isa.R1, 0x3c3c)
			case 3:
				b.Shri(isa.R1, isa.R1, 1)
			}
		}
		b.Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		e1, e2 := NewExecutor(p), NewExecutor(p)
		e1.Run(0, nil)
		e2.Run(0, nil)
		return e1.Reg(isa.R1) == e2.Reg(isa.R1) && e1.Executed() == e2.Executed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
