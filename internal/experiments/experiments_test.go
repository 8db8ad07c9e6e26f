package experiments

import (
	"strings"
	"testing"
)

// testInsts keeps experiment tests fast; the harness default is 100k.
const testInsts = 8_000

func TestIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 10 {
		t.Fatalf("IDs() = %v", ids)
	}
	if _, err := evaluate(NewSession(testInsts, 0), "E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestE1Configs(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E1")
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"ROB entries", "lookahead window", "cross-cluster bypass"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q", want)
		}
	}
}

func TestE2HeadlineFigure(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E2")
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	// All 19 benchmarks plus the geomean row.
	for _, b := range []string{"perlbench", "mcf", "lbm", "GEOMEAN"} {
		if !strings.Contains(out, b) {
			t.Errorf("E2 missing row %q", b)
		}
	}
	gmS := res.Metrics["geomean_fgstp_vs_single"]
	gmF := res.Metrics["geomean_fgstp_vs_fusion"]
	if gmS <= 1.0 {
		t.Errorf("medium fgstp/single geomean %.3f, want > 1", gmS)
	}
	if gmF <= 0.95 {
		t.Errorf("medium fgstp/fusion geomean %.3f suspiciously low", gmF)
	}
}

func TestE4AblationOrdering(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E4")
	if err != nil {
		t.Fatal(err)
	}
	full := res.Metrics["geomean_full"]
	for _, v := range []string{"no-dep-speculation", "steer-roundrobin"} {
		if got := res.Metrics["geomean_"+v]; got >= full {
			t.Errorf("%s (%.3f) not worse than full (%.3f)", v, got, full)
		}
	}
	if nr := res.Metrics["geomean_no-replication"]; nr >= full {
		t.Errorf("no-replication (%.3f) not worse than full (%.3f)", nr, full)
	}
}

func TestE5LatencyMonotone(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E5")
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Metrics["geomean_lat1"]
	l8 := res.Metrics["geomean_lat8"]
	if l8 >= l1 {
		t.Errorf("8-cycle comm (%.3f) not slower than 1-cycle (%.3f)", l8, l1)
	}
}

func TestE7WindowHelps(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E7")
	if err != nil {
		t.Fatal(err)
	}
	w64 := res.Metrics["geomean_win64"]
	w512 := res.Metrics["geomean_win512"]
	if w512 < w64 {
		t.Errorf("window 512 (%.3f) worse than window 64 (%.3f)", w512, w64)
	}
}

func TestE8Characterisation(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E8")
	if err != nil {
		t.Fatal(err)
	}
	bal := res.Metrics["mean_core1_frac"]
	if bal < 0.3 || bal > 0.7 {
		t.Errorf("mean partition balance %.2f outside [0.3, 0.7]", bal)
	}
	if repl := res.Metrics["mean_replicated_frac"]; repl <= 0 || repl > 0.25 {
		t.Errorf("mean replication %.3f implausible", repl)
	}
}

func TestE9PredictorOrdering(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E9")
	if err != nil {
		t.Fatal(err)
	}
	perfect := res.Metrics["geomean_perfect"]
	conservative := res.Metrics["geomean_conservative"]
	if perfect < conservative {
		t.Errorf("oracle (%.3f) worse than conservative (%.3f)", perfect, conservative)
	}
	sized := res.Metrics["geomean_2k-entry"]
	if sized < conservative-0.02 {
		t.Errorf("2k load-wait table (%.3f) clearly worse than conservative (%.3f)",
			sized, conservative)
	}
}

func TestE10SuiteSplit(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E10")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"small_int_fgstp_vs_single", "small_fp_fgstp_vs_single",
		"medium_int_fgstp_vs_fusion", "medium_fp_fgstp_vs_fusion",
	} {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("E10 missing metric %q", key)
		}
	}
}

func TestE6QueueAndBandwidth(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E6")
	if err != nil {
		t.Fatal(err)
	}
	// Wider channels are never slower.
	if res.Metrics["geomean_bw4"] < res.Metrics["geomean_bw1"]-0.02 {
		t.Errorf("bw4 (%.3f) worse than bw1 (%.3f)",
			res.Metrics["geomean_bw4"], res.Metrics["geomean_bw1"])
	}
	if res.Metrics["geomean_q64"] < res.Metrics["geomean_q4"]-0.02 {
		t.Errorf("q64 (%.3f) worse than q4 (%.3f)",
			res.Metrics["geomean_q64"], res.Metrics["geomean_q4"])
	}
}

func TestE3Small(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["geomean_fgstp_vs_single"] <= 1.0 {
		t.Errorf("small fgstp/single geomean %.3f, want > 1",
			res.Metrics["geomean_fgstp_vs_single"])
	}
}

func TestE11EnergyExtension(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E11")
	if err != nil {
		t.Fatal(err)
	}
	// Fg-STP must cost more energy than the single core (two active
	// cores, replicas, channel traffic).
	if r := res.Metrics["fgstp_energy_ratio"]; r <= 1.0 {
		t.Errorf("fgstp energy ratio %.3f, want > 1", r)
	}
}

func TestE12AdaptiveExtension(t *testing.T) {
	res, err := evaluate(NewSession(testInsts, 0), "E12")
	if err != nil {
		t.Fatal(err)
	}
	oracle := res.Metrics["geomean_ipc_oracle"]
	single := res.Metrics["geomean_ipc_single"]
	if oracle < single {
		t.Errorf("oracle IPC %.3f below always-single %.3f", oracle, single)
	}
}

func TestExtensionIDs(t *testing.T) {
	if len(ExtensionIDs()) != 2 {
		t.Errorf("ExtensionIDs = %v", ExtensionIDs())
	}
}
