package trace

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

func sampleProgram() *program.Program {
	return program.MustAssemble("sample", `
		li r1, 0x100000
		li r2, 10
	loop:
		ld r3, 0(r1)
		add r3, r3, r2
		st r3, 0(r1)
		addi r1, r1, 8
		addi r2, r2, -1
		bne r2, r0, loop
		halt`)
}

// checkFlow requires every derived next-PC to agree with the recorded
// control outcome: the branch or jump target when taken, else the
// fall-through address.
func checkFlow(t *testing.T, tr *Trace) {
	t.Helper()
	for i := range tr.Insts {
		d := tr.At(i)
		want := d.PC + isa.InstBytes
		if d.Taken() {
			want = d.Target
		}
		if got := tr.nextPC(i); got != want {
			t.Fatalf("inst %d (%s): next pc %#x, want %#x", i, d, got, want)
		}
	}
}

func TestCapture(t *testing.T) {
	p := sampleProgram()
	tr := Capture(p, 0)
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	checkFlow(t, tr)
	// 2 setup + 10 iterations of 6 instructions.
	if want := 2 + 10*6; tr.Len() != want {
		t.Errorf("trace length %d, want %d", tr.Len(), want)
	}
	// Run to completion, the last next-PC is the halt.
	if got, want := tr.nextPC(tr.Len()-1), program.PC(len(p.Code)-1); got != want {
		t.Errorf("final next pc %#x, want the halt at %#x", got, want)
	}
}

func TestCaptureCap(t *testing.T) {
	full := Capture(sampleProgram(), 0)
	tr := Capture(sampleProgram(), 7)
	if tr.Len() != 7 {
		t.Fatalf("capped trace length %d, want 7", tr.Len())
	}
	// The cap cuts the stream, not its control flow: the last next-PC
	// is where the uncapped run went.
	if got, want := tr.nextPC(6), full.At(7).PC; got != want {
		t.Errorf("capped final next pc %#x, want %#x", got, want)
	}
}

func TestStats(t *testing.T) {
	tr := Capture(sampleProgram(), 0)
	s := tr.ComputeStats()
	if s.Loads != 10 || s.Stores != 10 {
		t.Errorf("loads/stores = %d/%d, want 10/10", s.Loads, s.Stores)
	}
	if s.Branches != 10 || s.Taken != 9 {
		t.Errorf("branches/taken = %d/%d, want 10/9", s.Branches, s.Taken)
	}
	if s.UniqueWords != 10 {
		t.Errorf("unique words = %d, want 10", s.UniqueWords)
	}
	if s.StaticPCs != 8 {
		t.Errorf("static pcs = %d, want 8", s.StaticPCs)
	}
	if got := s.TakenRatio(); got != 0.9 {
		t.Errorf("taken ratio = %v, want 0.9", got)
	}
	if s.TotalDeps == 0 || s.ShortDeps == 0 {
		t.Error("dependence stats not collected")
	}
	if s.ByClass[isa.ClassIntAlu] == 0 {
		t.Error("class mix not collected")
	}
}

func TestStatsRatiosEmptyTrace(t *testing.T) {
	var s Stats
	if s.TakenRatio() != 0 || s.BranchRatio() != 0 || s.MemRatio() != 0 ||
		s.ShortDepRatio() != 0 {
		t.Error("ratios on empty stats must be zero")
	}
}

func TestDepDistanceBuckets(t *testing.T) {
	// Chain of dependent adds: every dependence has distance 1 → bucket 0.
	b := program.NewBuilder("chain")
	b.Li(isa.R1, 1)
	for i := 0; i < 20; i++ {
		b.Add(isa.R1, isa.R1, isa.R1)
	}
	b.Halt()
	tr := Capture(b.MustBuild(), 0)
	s := tr.ComputeStats()
	if s.DepDists[0] < 20 {
		t.Errorf("bucket 0 = %d, want >= 20", s.DepDists[0])
	}
	if s.ShortDepRatio() != 1.0 {
		t.Errorf("short dep ratio = %v, want 1", s.ShortDepRatio())
	}
}

func TestLog2Bucket(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1 << 14, 14}, {1 << 40, 15}}
	for _, c := range cases {
		if got := log2Bucket(c.v); got != c.want {
			t.Errorf("log2Bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSlice(t *testing.T) {
	tr := Capture(sampleProgram(), 0)
	sub := tr.Slice(5, 15)
	if sub.Len() != 10 {
		t.Fatalf("slice length %d", sub.Len())
	}
	checkFlow(t, sub)
	// A view: record i of the slice is record 5+i of the parent, the
	// same memory, not a copy.
	for i := 0; i < 10; i++ {
		if sub.At(i) != tr.At(5+i) {
			t.Fatalf("slice record %d does not alias parent record %d", i, 5+i)
		}
	}
	if got, want := sub.nextPC(9), tr.At(15).PC; got != want {
		t.Errorf("slice final next pc %#x, want the parent's next record's pc %#x", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { sub = tr.Slice(5, 15) }); allocs != 1 {
		t.Errorf("Slice made %.0f allocations, want 1 (the Trace header)", allocs)
	}
	// An append to the view must not write into the parent.
	want := *tr.At(15)
	_ = append(sub.Insts, isa.DynInst{})
	if *tr.At(15) != want {
		t.Error("appending to a slice overwrote its parent")
	}

	// A slice saves and loads like a captured trace: its final next-PC
	// is the parent's next record's PC.
	var buf bytes.Buffer
	if err := sub.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Len() != sub.Len() {
		t.Fatalf("loaded slice has %d records, want %d", back.Len(), sub.Len())
	}
	for i := range sub.Insts {
		if back.Insts[i] != sub.Insts[i] {
			t.Fatalf("loaded slice record %d differs:\n  %+v\n  %+v", i, back.Insts[i], sub.Insts[i])
		}
	}
	if got, want := back.nextPC(9), tr.At(15).PC; got != want {
		t.Errorf("loaded slice final next pc %#x, want %#x", got, want)
	}

	// Bounds clamping.
	if tr.Slice(-3, 4).Len() != 4 {
		t.Error("negative start not clamped")
	}
	if tr.Slice(0, 1<<30).Len() != tr.Len() {
		t.Error("oversized end not clamped")
	}
	if whole := tr.Slice(0, tr.Len()); whole.nextPC(whole.Len()-1) != tr.nextPC(tr.Len()-1) {
		t.Error("slice to the end lost the parent's final next pc")
	}
	if tr.Slice(10, 10).Len() != 0 || tr.Slice(20, 10).Len() != 0 {
		t.Error("degenerate ranges not empty")
	}
}

func TestCaptureRegionSkip(t *testing.T) {
	full := Capture(sampleProgram(), 0)
	skipped := CaptureRegion(sampleProgram(), 10, 0)
	if skipped.Len() != full.Len()-10 {
		t.Fatalf("skip=10 yielded %d, want %d", skipped.Len(), full.Len()-10)
	}
	checkFlow(t, skipped)
	if skipped.At(0).PC != full.At(10).PC {
		t.Error("skip did not align")
	}
}
