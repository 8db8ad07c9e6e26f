package energy

import (
	"math"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func TestWeightsValidate(t *testing.T) {
	w := Default()
	if err := w.Validate(); err != nil {
		t.Fatalf("default weights invalid: %v", err)
	}
	w.DRAMAccess = -1
	if err := w.Validate(); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestEstimateArithmetic(t *testing.T) {
	r := stats.Run{Workload: "x", Mode: "single", Cycles: 100, Insts: 50}
	r.Set("fetched_uops", 60)
	r.Set("issued_uops", 55)
	r.Set("l1i_accesses", 10)
	r.Set("l1d_accesses", 20)
	r.Set("l2_accesses", 5)
	r.Set("dram_accesses", 1)
	r.Set("active_cores", 1)
	w := Weights{Frontend: 1, Issue: 1, L1Access: 1, L2Access: 10,
		DRAMAccess: 100, CommTransfer: 1, StaticCore: 2, StaticUncore: 1}
	b, err := Estimate(&r, w)
	if err != nil {
		t.Fatal(err)
	}
	want := 60.0 + 55 + 30 + 50 + 100 + 0 + 100*(1*2+1)
	if b.Total != want {
		t.Errorf("total = %v, want %v", b.Total, want)
	}
	if b.EPI != want/50 {
		t.Errorf("EPI = %v", b.EPI)
	}
	if b.EDP != want*100 {
		t.Errorf("EDP = %v", b.EDP)
	}
	if len(b.ByComponent) != 7 {
		t.Errorf("components = %v", b.ByComponent)
	}
}

// With fractional weights the order of the component sum decides how
// Total rounds. Estimate sums in name order, so every call returns the
// same Total bit for bit, not one of several map-order roundings.
func TestEstimateSumsInNameOrder(t *testing.T) {
	r := stats.Run{Workload: "x", Mode: "fgstp", Cycles: 1_000_003, Insts: 777_777}
	r.Set("fetched_uops", 1_234_567)
	r.Set("issued_uops", 1_111_111)
	r.Set("l1i_accesses", 555_555)
	r.Set("l1d_accesses", 444_444)
	r.Set("l2_accesses", 33_333)
	r.Set("dram_accesses", 4_321)
	r.Set("comm_transfers", 77_777)
	r.Set("active_cores", 2)
	w := Weights{Frontend: 0.1, Issue: 0.3, L1Access: 1.0 / 3, L2Access: 2.7,
		DRAMAccess: 1.9, CommTransfer: 0.7, StaticCore: 1e13, StaticUncore: 0.07}
	b, err := Estimate(&r, w)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(names []string) float64 {
		var s float64
		for _, n := range names {
			s += b.ByComponent[n]
		}
		return s
	}
	names := stats.Names(b.ByComponent)
	reversed := make([]string, len(names))
	for i, n := range names {
		reversed[len(names)-1-i] = n
	}
	want := sum(names)
	if sum(reversed) == want {
		t.Fatal("the weights must make the summation order matter, or this test shows nothing")
	}
	for i := 0; i < 200; i++ {
		b, err := Estimate(&r, w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(b.Total) != math.Float64bits(want) {
			t.Fatalf("call %d: Total = %.17g, want the name-order sum %.17g", i, b.Total, want)
		}
	}
}

func TestEstimateRequiresCounts(t *testing.T) {
	r := stats.Run{Cycles: 10, Insts: 10}
	if _, err := Estimate(&r, Default()); err == nil {
		t.Error("run without counts accepted")
	}
}

// Integration: the modes' energy must order sensibly — the 2-core modes
// burn more total energy than the single core on the same work, and
// Fg-STP's dynamic energy includes communication.
func TestModeEnergyOrdering(t *testing.T) {
	m := config.Medium()
	w, _ := workloads.ByName("milc")
	tr := w.Trace(15_000)
	runs, err := cmp.RunAll(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	single, fgstp := runs[cmp.ModeSingle], runs[cmp.ModeFgSTP]
	bs, err := Estimate(&single, Default())
	if err != nil {
		t.Fatal(err)
	}
	bg, err := Estimate(&fgstp, Default())
	if err != nil {
		t.Fatal(err)
	}
	if bg.Total <= bs.Total {
		t.Errorf("fgstp energy %.0f not above single %.0f (two active cores + replicas)",
			bg.Total, bs.Total)
	}
	c := Against(&single, bs, &fgstp, bg)
	if c.Speedup <= 0 || c.EnergyRatio <= 1 {
		t.Errorf("comparison implausible: %+v", c)
	}
	t.Logf("milc medium: speedup %.3f, energy ratio %.3f, EDP gain %.3f",
		c.Speedup, c.EnergyRatio, c.EDPGain)
}

// Static energy dominates when a machine idles: a slow run on more
// cores must pay for it.
func TestStaticScalesWithCoresAndCycles(t *testing.T) {
	mk := func(cycles uint64, cores float64) Breakdown {
		r := stats.Run{Cycles: cycles, Insts: 1}
		r.Set("active_cores", cores)
		b, err := Estimate(&r, Default())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	oneCore := mk(1000, 1)
	twoCores := mk(1000, 2)
	longer := mk(2000, 1)
	if twoCores.Total <= oneCore.Total {
		t.Error("two active cores must cost more static energy")
	}
	if longer.Total != oneCore.Total+1000*Default().StaticCore+1000*Default().StaticUncore {
		t.Errorf("static energy must scale linearly with cycles: %v vs %v",
			longer.Total, oneCore.Total)
	}
}
