package cmp

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// randomProgram builds a random but structurally valid program mixing
// arithmetic, memory, calls and data-dependent branches.
func randomProgram(seed int64) *program.Program {
	rng := rand.New(rand.NewSource(seed))
	b := program.NewBuilder("fuzz")
	b.Li(isa.R1, 0x500000)
	b.Li(isa.R2, int64(150+rng.Intn(150))) // outer trips
	b.Label("main")
	b.Label("loop")
	body := 6 + rng.Intn(10)
	for i := 0; i < body; i++ {
		r := func() isa.Reg { return isa.Reg(3 + rng.Intn(10)) }
		f := func() isa.Reg { return isa.Reg(int(isa.F1) + rng.Intn(8)) }
		switch rng.Intn(9) {
		case 0:
			b.Add(r(), r(), r())
		case 1:
			b.Mul(r(), r(), r())
		case 2:
			b.Ld(r(), isa.R1, int64(rng.Intn(256))*8)
		case 3:
			b.St(r(), isa.R1, int64(rng.Intn(256))*8)
		case 4:
			b.Fadd(f(), f(), f())
		case 5:
			b.Fmul(f(), f(), f())
		case 6:
			b.Xori(r(), r(), int64(rng.Intn(4096)))
		case 7:
			b.Div(r(), r(), r())
		case 8:
			b.Call("leaf")
		}
	}
	// Data-dependent branch inside the loop.
	b.Andi(isa.R14, isa.R4, 3)
	b.Beq(isa.R14, isa.R0, "skip")
	b.Addi(isa.R15, isa.R15, 1)
	b.Label("skip")
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "loop")
	b.Halt()
	b.Label("leaf")
	b.Addi(isa.R13, isa.R13, 7)
	b.Ret()
	return b.MustBuild()
}

// Cross-mode fuzz: random programs commit completely in every mode on
// both machine presets — the end-to-end correctness property of the
// whole simulator stack.
func TestFuzzAllModesCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep in -short mode")
	}
	machines := []config.Machine{config.Small(), config.Medium()}
	for seed := int64(100); seed < 112; seed++ {
		tr := trace.CaptureFromLabel(randomProgram(seed), "main", 6_000)
		if tr.Len() == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		// The stream's control flow is self-consistent: each next-PC,
		// the following record's PC, is the recorded target when taken
		// and the fall-through otherwise.
		for i := 0; i+1 < tr.Len(); i++ {
			d := tr.At(i)
			want := d.PC + isa.InstBytes
			if d.Taken() {
				want = d.Target
			}
			if got := tr.At(i + 1).PC; got != want {
				t.Fatalf("seed %d: inst %d (%s) followed by pc %#x, want %#x", seed, i, d, got, want)
			}
		}
		for _, m := range machines {
			for _, mode := range Modes() {
				r, err := Run(m, mode, tr)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, m.Name, mode, err)
				}
				if r.Insts != uint64(tr.Len()) {
					t.Errorf("seed %d %s/%s: committed %d of %d",
						seed, m.Name, mode, r.Insts, tr.Len())
				}
			}
		}
	}
}

// Fg-STP determinism under fuzz: identical cycle counts across repeated
// runs of random programs.
func TestFuzzFgstpDeterministic(t *testing.T) {
	m := config.Medium()
	for seed := int64(500); seed < 504; seed++ {
		tr := trace.CaptureFromLabel(randomProgram(seed), "main", 5_000)
		a, err := Run(m, ModeFgSTP, tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(m, ModeFgSTP, tr)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles {
			t.Errorf("seed %d: nondeterministic fgstp: %d vs %d cycles",
				seed, a.Cycles, b.Cycles)
		}
	}
}
