package cmp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func sampledTestTrace(t *testing.T, insts uint64) *trace.Trace {
	t.Helper()
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("unknown workload mcf")
	}
	return w.Trace(insts)
}

// A slice spanning the whole trace from the checkpoint at position 0
// (cold state, empty warmup) is exactly the continuous simulation: the
// restore path must reproduce the full run's cycle and instruction
// counts in every mode.
func TestSliceSimFullSliceMatchesContinuousRun(t *testing.T) {
	tr := sampledTestTrace(t, 20_000)
	m, err := config.ByName("small")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range Modes() {
		t.Run(string(mode), func(t *testing.T) {
			full, err := Run(m, mode, tr)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := NewSliceSim(m, mode, tr, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			cycles, insts, err := sim.Run(0, 0, tr.Len())
			if err != nil {
				t.Fatal(err)
			}
			if cycles != full.Cycles || insts != full.Insts {
				t.Errorf("restored run %d cycles/%d insts, continuous %d/%d",
					cycles, insts, full.Cycles, full.Insts)
			}
		})
	}
}

// A mid-trace checkpointed slice must behave sanely in every mode:
// measured instructions exactly the slice length, positive cycle count,
// and identical results on repeated runs from the same snapshot
// (restores never mutate the snapshot).
func TestSliceSimMidTraceRepeatable(t *testing.T) {
	tr := sampledTestTrace(t, 20_000)
	m, err := config.ByName("small")
	if err != nil {
		t.Fatal(err)
	}
	const wstart, start, end = 8_000, 10_000, 12_000
	for _, mode := range Modes() {
		t.Run(string(mode), func(t *testing.T) {
			sim, err := NewSliceSim(m, mode, tr, []int{wstart})
			if err != nil {
				t.Fatal(err)
			}
			c1, i1, err := sim.Run(wstart, start, end)
			if err != nil {
				t.Fatal(err)
			}
			if i1 != end-start {
				t.Errorf("measured %d instructions, want %d", i1, end-start)
			}
			if c1 == 0 {
				t.Error("zero measured cycles")
			}
			c2, i2, err := sim.Run(wstart, start, end)
			if err != nil {
				t.Fatal(err)
			}
			if c1 != c2 || i1 != i2 {
				t.Errorf("repeat run diverged: %d/%d vs %d/%d", c2, i2, c1, i1)
			}
		})
	}
}

// TestSliceSimSharedCapture: single and Fg-STP warm the same
// geometry, so an Fg-STP simulator rebound from single's checkpoints
// must measure every slice exactly as one with its own capture pass —
// with both modes' slices running concurrently from the one shared
// capture, which -race checks for writes to the shared snapshots. Core
// Fusion's fused L1s are another geometry and must be refused.
func TestSliceSimSharedCapture(t *testing.T) {
	w, ok := workloads.ByName("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	tr := w.Trace(20_000)
	m := config.Medium()
	type slice struct{ wstart, start, end int }
	slices := []slice{{3_000, 5_000, 8_000}, {9_000, 12_000, 14_000}, {15_000, 17_000, 20_000}}
	var bounds []int
	for _, sl := range slices {
		bounds = append(bounds, sl.wstart)
	}
	single, err := NewSliceSim(m, ModeSingle, tr, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.WithMode(ModeFusion); err == nil {
		t.Error("single checkpoints rebound to corefusion")
	}
	shared, err := single.WithMode(ModeFgSTP)
	if err != nil {
		t.Fatal(err)
	}
	own, err := NewSliceSim(m, ModeFgSTP, tr, bounds)
	if err != nil {
		t.Fatal(err)
	}
	sims := []*SliceSim{single, shared, single, shared}
	got := make([][]uint64, len(sims))
	var wg sync.WaitGroup
	for i, sim := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sl := range slices {
				cycles, _, err := sim.Run(sl.wstart, sl.start, sl.end)
				if err != nil {
					t.Error(err)
				}
				got[i] = append(got[i], cycles)
			}
		}()
	}
	wg.Wait()
	for k, sl := range slices {
		want, _, err := own.Run(sl.wstart, sl.start, sl.end)
		if err != nil {
			t.Fatal(err)
		}
		if got[1][k] != want || got[3][k] != want {
			t.Errorf("slice %v: shared-capture fgstp %d/%d cycles, own capture %d", sl, got[1][k], got[3][k], want)
		}
		if got[0][k] != got[2][k] || got[0][k] == want {
			t.Errorf("slice %v: single %d/%d cycles, fgstp %d: want single repeatable and apart from fgstp", sl, got[0][k], got[2][k], want)
		}
	}
}

func TestSliceSimErrors(t *testing.T) {
	tr := sampledTestTrace(t, 5_000)
	m, err := config.ByName("small")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSliceSim(m, Mode("warp"), tr, []int{0}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := NewSliceSim(m, ModeSingle, tr, []int{-5}); err == nil {
		t.Error("negative boundary accepted")
	}
	sim, err := NewSliceSim(m, ModeSingle, tr, []int{1_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(2_000, 1_000, 3_000); err == nil {
		t.Error("warmup start after measured start accepted")
	}
	if _, _, err := sim.Run(1_000, 3_000, 3_000); err == nil {
		t.Error("empty measured region accepted")
	}
	if _, _, err := sim.Run(1_000, 2_000, tr.Len()+1); err == nil {
		t.Error("slice past trace end accepted")
	}
	if _, _, err := sim.Run(500, 1_000, 2_000); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// sliceDigest is the SHA-256 over TestSliceSimPinned's per-slice lines.
// Restore plumbing is pure bookkeeping: a change to it must leave every
// mid-trace slice's measured cycles and instructions as they are, and
// only a deliberate change to warming or restoring moves the digest.
const sliceDigest = "3f9c5d8b8994f402d5628facacdd0d83a9fb43de6f098d646bb13acc27da1cf6"

// TestSliceSimPinned hashes SliceSim.Run's (cycles, insts) for three
// mid-trace slices with non-zero warmup per (workload, machine, mode)
// cell: gcc, mcf and bzip2 on small and medium in every mode. Only a
// mid-trace slice restores warm predictor and cache state (position 0
// restores a cold one), so this is the test that sees a restore change
// — for example the Fg-STP pair's L1s restored into one core only.
// Cells run as parallel subtests, hashed in cell order afterwards.
func TestSliceSimPinned(t *testing.T) {
	type slice struct{ wstart, start, end int }
	slices := []slice{{3_000, 5_000, 8_000}, {9_000, 12_000, 14_000}, {15_000, 17_000, 20_000}}
	var bounds []int
	for _, s := range slices {
		bounds = append(bounds, s.wstart)
	}
	type cell struct {
		w    string
		m    config.Machine
		mode Mode
	}
	var cells []cell
	for _, w := range []string{"gcc", "mcf", "bzip2"} {
		for _, m := range []config.Machine{config.Small(), config.Medium()} {
			for _, mode := range Modes() {
				cells = append(cells, cell{w, m, mode})
			}
		}
	}
	lines := make([]string, len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, c := range cells {
			i, c := i, c
			t.Run(c.w+"/"+c.m.Name+"/"+string(c.mode), func(t *testing.T) {
				t.Parallel()
				w, ok := workloads.ByName(c.w)
				if !ok {
					t.Fatalf("unknown workload %s", c.w)
				}
				sim, err := NewSliceSim(c.m, c.mode, w.Trace(20_000), bounds)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range slices {
					cycles, insts, err := sim.Run(s.wstart, s.start, s.end)
					if err != nil {
						t.Fatal(err)
					}
					if insts != uint64(s.end-s.start) || cycles == 0 {
						t.Errorf("slice %v: %d cycles, %d insts", s, cycles, insts)
					}
					lines[i] += fmt.Sprintf("%s %s %s %d/%d/%d cycles=%d insts=%d\n",
						c.w, c.m.Name, c.mode, s.wstart, s.start, s.end, cycles, insts)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	h := sha256.New()
	for _, l := range lines {
		if l == "" {
			t.Skip("a -run filter left cells out; the digest covers all of them")
		}
		h.Write([]byte(l))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sliceDigest {
		t.Errorf("slice digest %s, want %s", got, sliceDigest)
	}
}
