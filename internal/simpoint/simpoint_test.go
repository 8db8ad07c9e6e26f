package simpoint

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// twoPhaseTrace builds a program with two clearly distinct phases:
// a load-heavy loop followed by an arithmetic-heavy loop.
func twoPhaseTrace(t *testing.T) *trace.Trace {
	t.Helper()
	b := program.NewBuilder("phases")
	b.Li(isa.R1, 0x100000)
	b.Li(isa.R2, 1200)
	b.Label("main")
	b.Label("p1")
	b.Ld(isa.R3, isa.R1, 0)
	b.Ld(isa.R4, isa.R1, 8)
	b.Add(isa.R5, isa.R3, isa.R4)
	b.Addi(isa.R1, isa.R1, 16)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "p1")
	b.Li(isa.R2, 1200)
	b.Label("p2")
	b.Mul(isa.R6, isa.R6, isa.R6)
	b.Xori(isa.R6, isa.R6, 0x5a5a)
	b.Addi(isa.R7, isa.R7, 3)
	b.Shri(isa.R8, isa.R6, 7)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "p2")
	b.Halt()
	return trace.CaptureFromLabel(b.MustBuild(), "main", 0)
}

func TestSignatures(t *testing.T) {
	tr := twoPhaseTrace(t)
	vecs, err := Signatures(tr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := (tr.Len() + 999) / 1000
	if len(vecs) != want {
		t.Fatalf("vectors = %d, want %d", len(vecs), want)
	}
	// Each signature is normalised.
	for i, v := range vecs {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("vector %d sums to %v", i, sum)
		}
	}
	// Signatures from the two phases must differ far more than
	// signatures within one phase.
	first, last := vecs[0], vecs[len(vecs)-2]
	within := dist2(&vecs[0], &vecs[1])
	across := dist2(&first, &last)
	if across < 10*within+1e-9 {
		t.Errorf("phases not separable: within %v, across %v", within, across)
	}
}

func TestSignaturesErrors(t *testing.T) {
	if _, err := Signatures(&trace.Trace{}, 100); err == nil {
		t.Error("empty trace accepted")
	}
	tr := twoPhaseTrace(t)
	if _, err := Signatures(tr, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestKMeansSeparatesPhases(t *testing.T) {
	tr := twoPhaseTrace(t)
	vecs, _ := Signatures(tr, 1000)
	assign, centroids, err := KMeans(vecs, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(centroids) != 2 {
		t.Fatalf("centroids = %d", len(centroids))
	}
	// The first and the second-to-last interval must land in different
	// clusters (phase boundary is mid-trace).
	if assign[0] == assign[len(assign)-2] {
		t.Error("k-means merged the two phases")
	}
	// Clustering is deterministic.
	assign2, _, _ := KMeans(vecs, 2, 50)
	for i := range assign {
		if assign[i] != assign2[i] {
			t.Fatal("k-means nondeterministic")
		}
	}
}

func TestKMeansEdges(t *testing.T) {
	if _, _, err := KMeans(nil, 2, 10); err == nil {
		t.Error("empty input accepted")
	}
	vecs := []Vector{{1}, {0, 1}}
	if _, _, err := KMeans(vecs, 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
	// k larger than input is clamped.
	assign, centroids, err := KMeans(vecs, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(centroids) != 2 || len(assign) != 2 {
		t.Errorf("clamp failed: %d centroids", len(centroids))
	}
}

func TestChooseWeightsSumToOne(t *testing.T) {
	tr := twoPhaseTrace(t)
	reps, err := Choose(tr, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 {
		t.Fatal("no representatives")
	}
	sum := 0.0
	for _, r := range reps {
		sum += r.Weight
		if r.Start != r.Interval*1000 {
			t.Errorf("rep start %d != interval %d * 1000", r.Start, r.Interval)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

// End-to-end: sampled CPI of a real workload approximates full-trace
// CPI within a reasonable error bound.
func TestSampledCPIApproximatesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-vs-full comparison in -short mode")
	}
	w, _ := workloads.ByName("bzip2")
	tr := w.Trace(60_000)
	m := config.Medium()

	full, err := cmp.Run(m, cmp.ModeSingle, tr)
	if err != nil {
		t.Fatal(err)
	}
	fullCPI := float64(full.Cycles) / float64(full.Insts)

	const interval = 5_000
	reps, err := Choose(tr, interval, 6)
	if err != nil {
		t.Fatal(err)
	}
	cycles := make([]uint64, len(reps))
	insts := make([]uint64, len(reps))
	for i, r := range reps {
		end := r.Start + interval
		if end > tr.Len() {
			end = tr.Len()
		}
		sub := tr.Slice(r.Start, end)
		run, err := cmp.Run(m, cmp.ModeSingle, sub)
		if err != nil {
			t.Fatal(err)
		}
		cycles[i] = run.Cycles
		insts[i] = run.Insts
	}
	sampled, err := WeightedCPI(reps, cycles, insts)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(sampled-fullCPI) / fullCPI
	t.Logf("full CPI %.3f, sampled CPI %.3f (%.1f%% error, %d of %d intervals simulated)",
		fullCPI, sampled, relErr*100, len(reps), (tr.Len()+interval-1)/interval)
	if relErr > 0.25 {
		t.Errorf("sampled CPI off by %.1f%%", relErr*100)
	}
}

func TestWeightedCPIErrors(t *testing.T) {
	reps := []Representative{{Weight: 1}}
	if _, err := WeightedCPI(reps, []uint64{10}, []uint64{0}); err == nil {
		t.Error("zero insts accepted")
	}
	if _, err := WeightedCPI(reps, nil, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

// estimateWith runs the checkpointed sampled pipeline for one warmup
// setting and returns the estimate.
func estimateWith(t *testing.T, m config.Machine, tr *trace.Trace, reps []Representative, interval, warmup, jobs int) Estimate {
	t.Helper()
	slices, err := Slices(reps, interval, warmup, tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	boundaries := make([]int, len(slices))
	for i, s := range slices {
		boundaries[i] = s.WStart
	}
	sim, err := cmp.NewSliceSim(m, cmp.ModeSingle, tr, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateCPI(reps, interval, warmup, tr.Len(), jobs, sim.Run)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// Detailed warmup must improve (or at least not worsen) checkpointed
// sampling accuracy on a cache-resident workload.
func TestEstimateCPIWarmupHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("warmup comparison in -short mode")
	}
	w, _ := workloads.ByName("gcc")
	tr := w.Trace(50_000)
	m := config.Medium()
	full, err := cmp.Run(m, cmp.ModeSingle, tr)
	if err != nil {
		t.Fatal(err)
	}
	fullCPI := float64(full.Cycles) / float64(full.Insts)

	const interval = 5_000
	reps, err := Choose(tr, interval, 5)
	if err != nil {
		t.Fatal(err)
	}
	cold := estimateWith(t, m, tr, reps, interval, 0, 1)
	warm := estimateWith(t, m, tr, reps, interval, interval, 1)
	errCold := math.Abs(cold.CPI-fullCPI) / fullCPI
	errWarm := math.Abs(warm.CPI-fullCPI) / fullCPI
	t.Logf("full %.3f, cold-sampled %.3f (%.0f%%), warm-sampled %.3f (%.0f%%)",
		fullCPI, cold.CPI, errCold*100, warm.CPI, errWarm*100)
	if errWarm > errCold+0.02 {
		t.Errorf("warmup worsened sampling: %.1f%% vs %.1f%%", errWarm*100, errCold*100)
	}
	// The reported interval must contain the full-run IPC.
	fullIPC := 1 / fullCPI
	if fullIPC < warm.IPCLow || fullIPC > warm.IPCHigh {
		t.Errorf("full IPC %.3f outside reported CI [%.3f, %.3f]",
			fullIPC, warm.IPCLow, warm.IPCHigh)
	}
	if warm.SampledInsts == 0 || warm.SampledInsts >= uint64(tr.Len()) {
		t.Errorf("sampled %d of %d instructions", warm.SampledInsts, tr.Len())
	}
}

// The estimate is deterministic: the same representatives yield
// byte-identical numbers at any fan-out width.
func TestEstimateCPIDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled determinism comparison in -short mode")
	}
	w, _ := workloads.ByName("bzip2")
	tr := w.Trace(40_000)
	m := config.Medium()
	const interval = 4_000
	reps, err := Choose(tr, interval, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := estimateWith(t, m, tr, reps, interval, interval, 1)
	b := estimateWith(t, m, tr, reps, interval, interval, 4)
	if a != b {
		t.Errorf("estimate differs across jobs: %+v vs %+v", a, b)
	}
}

func TestEstimateCPIErrors(t *testing.T) {
	if _, err := EstimateCPI([]Representative{{Weight: 1}}, 100, 0, 1000, 1, nil); err == nil {
		t.Error("nil sim accepted")
	}
	ok := func(wstart, start, end int) (uint64, uint64, error) { return 10, 10, nil }
	if _, err := EstimateCPI(nil, 100, 0, 1000, 1, ok); err == nil {
		t.Error("no representatives accepted")
	}
	reps := []Representative{{Start: 2000, Weight: 1}}
	if _, err := EstimateCPI(reps, 100, 0, 1000, 1, ok); err == nil {
		t.Error("representative beyond trace accepted")
	}
	zero := func(wstart, start, end int) (uint64, uint64, error) { return 0, 0, nil }
	if _, err := EstimateCPI([]Representative{{Weight: 1}}, 100, 0, 1000, 1, zero); err == nil {
		t.Error("zero measured instructions accepted")
	}
	// Every slice runs, and the error is the lowest-index failed slice's,
	// at any worker count.
	reps = []Representative{{Start: 0, Weight: 0.25}, {Start: 100, Weight: 0.25}, {Start: 200, Weight: 0.25}, {Start: 300, Weight: 0.25}}
	for _, jobs := range []int{1, 4} {
		var ran atomic.Int64
		failing := func(wstart, start, end int) (uint64, uint64, error) {
			ran.Add(1)
			if start == 100 || start == 300 {
				return 0, 0, fmt.Errorf("slice at %d failed", start)
			}
			return 10, 10, nil
		}
		_, err := EstimateCPI(reps, 100, 0, 1000, jobs, failing)
		if err == nil || err.Error() != "slice at 100 failed" || ran.Load() != 4 {
			t.Errorf("jobs %d: error %v after %d of 4 slices, want slice 100's after all 4", jobs, err, ran.Load())
		}
	}
}

func TestSlices(t *testing.T) {
	reps := []Representative{{Start: 0, Weight: 0.5}, {Start: 900, Weight: 0.5}}
	slices, err := Slices(reps, 100, 250, 950)
	if err != nil {
		t.Fatal(err)
	}
	// First slice's warmup clamps at the trace start; last slice's end
	// clamps at the trace end.
	if slices[0].WStart != 0 || slices[0].Start != 0 || slices[0].End != 100 {
		t.Errorf("slice 0 = %+v", slices[0])
	}
	if slices[1].WStart != 650 || slices[1].Start != 900 || slices[1].End != 950 {
		t.Errorf("slice 1 = %+v", slices[1])
	}
	if _, err := Slices(reps, 0, 0, 950); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Slices(reps, 100, -1, 950); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := Slices([]Representative{{Start: 1000}}, 100, 0, 1000); err == nil {
		t.Error("representative at trace end accepted")
	}
}

// Choose with k far above the interval count clamps instead of failing,
// and still covers every interval.
func TestChooseKLargerThanIntervals(t *testing.T) {
	tr := twoPhaseTrace(t)
	n := (tr.Len() + 999) / 1000
	reps, err := Choose(tr, 1000, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 || len(reps) > n {
		t.Fatalf("%d representatives for %d intervals", len(reps), n)
	}
	sum := 0.0
	for _, r := range reps {
		sum += r.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

// A trace shorter than one interval still yields exactly one
// representative covering the whole trace.
func TestChooseShortTrace(t *testing.T) {
	tr := twoPhaseTrace(t)
	reps, err := Choose(tr, tr.Len()*4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("%d representatives, want 1", len(reps))
	}
	if reps[0].Start != 0 || math.Abs(reps[0].Weight-1) > 1e-9 {
		t.Errorf("representative %+v, want start 0 weight 1", reps[0])
	}
	slices, err := Slices(reps, tr.Len()*4, 0, tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	if slices[0].End != tr.Len() {
		t.Errorf("slice end %d, want trace end %d", slices[0].End, tr.Len())
	}
}

// Representative choice is deterministic: the same trace produces the
// same points on every call.
func TestChooseDeterministic(t *testing.T) {
	w, _ := workloads.ByName("bzip2")
	tr := w.Trace(30_000)
	a, err := Choose(tr, 3_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Choose(w.Trace(30_000), 3_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d representatives", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("representative %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
