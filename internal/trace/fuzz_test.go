// Fuzz and corruption tests for the binary trace loader. The loader
// consumes untrusted bytes (fgstpsim -loadtrace), so it must reject
// any malformed input with an error — never panic, never allocate
// unboundedly, never hand the timing models out-of-range Class or Reg
// values. The package is external (trace_test) so it can seed the
// corpus from the deterministic fault injector without an import
// cycle.
package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// fuzzSampleBytes returns the serialised bytes of a small valid trace.
func fuzzSampleBytes(tb testing.TB) []byte {
	tb.Helper()
	p := program.MustAssemble("fuzzseed", `
		li r1, 0x100000
		li r2, 6
	loop:
		ld r3, 0(r1)
		add r3, r3, r2
		st r3, 0(r1)
		addi r1, r1, 8
		addi r2, r2, -1
		bne r2, r0, loop
		halt`)
	tr := trace.Capture(p, 0)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkAccepted holds a trace Load accepted to what the timing models
// rely on: in-range Class and Reg values, and a stream that saves and
// loads back unchanged, records and final next-PC alike (Load refuses
// a broken next-PC chain, so a re-saved trace must load again).
func checkAccepted(tr *trace.Trace) error {
	for i := range tr.Insts {
		d := tr.At(i)
		if int(d.Class) >= isa.NumClasses {
			return fmt.Errorf("record %d has invalid class %d", i, d.Class)
		}
		for _, r := range [...]isa.Reg{d.Dst, d.Src1, d.Src2, d.Src3} {
			if !r.Valid() && r != isa.RegNone {
				return fmt.Errorf("record %d has invalid register %d", i, uint8(r))
			}
		}
	}
	var first, second bytes.Buffer
	if err := tr.Save(&first); err != nil {
		return err
	}
	back, err := trace.Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		return fmt.Errorf("does not load after a re-save: %w", err)
	}
	if err := back.Save(&second); err != nil {
		return err
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Errorf("changed across a save/load round trip")
	}
	return nil
}

// FuzzTraceLoad feeds arbitrary bytes to the loader: any outcome is
// acceptable except a panic or an invalid trace reported as valid.
func FuzzTraceLoad(f *testing.F) {
	valid := fuzzSampleBytes(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a trace"))
	// Seed the corpus with injector-produced corruptions and
	// truncations so the fuzzer starts at interesting boundaries.
	for seed := int64(1); seed <= 8; seed++ {
		in := faults.New(seed)
		f.Add(in.CorruptBytes(valid, 4))
		f.Add(in.Truncate(valid))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Load(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		if verr := checkAccepted(tr); verr != nil {
			t.Fatalf("Load accepted an invalid trace: %v", verr)
		}
	})
}

// Injector-corrupted or truncated traces must come back as errors (or,
// for corruptions the format cannot detect, as still-valid traces) —
// and must never panic. This is the non-fuzz regression form of
// FuzzTraceLoad.
func TestLoadSurvivesInjectedCorruption(t *testing.T) {
	valid := fuzzSampleBytes(t)
	for seed := int64(0); seed < 100; seed++ {
		in := faults.New(seed)
		for _, data := range [][]byte{in.CorruptBytes(valid, 3), in.Truncate(valid)} {
			tr, err := trace.Load(bytes.NewReader(data))
			if err != nil {
				continue
			}
			if verr := checkAccepted(tr); verr != nil {
				t.Fatalf("Load accepted an invalid trace: %v", verr)
			}
		}
	}
}
