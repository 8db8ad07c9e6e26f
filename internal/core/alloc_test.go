package core

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// Steady-state Machine.Cycle performs zero heap allocations: sequencer
// fill, steering (its decision ring and store table), both cores, the
// channels, the cross-core side tables and the store tracker must all
// run out of preallocated storage.
func TestMachineCycleZeroAllocs(t *testing.T) {
	tr := wkTrace(t, "mcf", 120_000)
	m := mustMachine(t, config.Medium(), tr)

	var now int64
	for ; now < 10_000; now++ {
		m.Cycle(now)
	}
	if m.Done() {
		t.Fatal("trace too short: machine finished during warmup")
	}
	avg := testing.AllocsPerRun(50, func() {
		for end := now + 100; now < end; now++ {
			m.Cycle(now)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Machine.Cycle allocates: %.2f allocs per 100 cycles, want 0", avg)
	}
	if m.nextCommit == 0 {
		t.Fatal("machine made no progress during the measurement")
	}
}

// An Fg-STP machine's memory is bounded by its windows, not by the
// trace: building and draining one over a 400k-instruction trace
// allocates the same bytes, within a small constant, as over a
// 20k-instruction prefix of it: steering keeps a window-bounded ring of
// decisions and table of stores, not one entry per instruction or per
// store address.
func TestMachineMemoryIndependentOfTraceLength(t *testing.T) {
	long := wkTrace(t, "calculix", 400_000)
	short := long.Slice(0, 20_000)
	allocated := func(tr *trace.Trace) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		mustDrainM(t, mustMachine(t, config.Medium(), tr))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	s, l := allocated(short), allocated(long)
	t.Logf("allocated %d B for %d instructions, %d B for %d", s, short.Len(), l, long.Len())
	if l > s+64<<10 {
		t.Errorf("draining %d instructions allocated %d B, %d more than %d instructions (want at most %d more)",
			long.Len(), l, l-s, short.Len(), 64<<10)
	}
}
