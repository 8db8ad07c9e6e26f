// Benchmarks regenerating every table and figure of the Fg-STP
// evaluation, one per experiment (see DESIGN.md's experiment index and
// EXPERIMENTS.md for recorded results). Each benchmark iteration runs
// the full experiment at a reduced per-simulation instruction budget;
// the reported metrics (geomeans) are attached via b.ReportMetric so
// `go test -bench` output shows the reproduced numbers alongside the
// timing.
//
// Regenerate the full-size evaluation with:
//
//	go run ./cmd/fgstpbench -experiment all
package repro_test

import (
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// benchInsts is the per-simulation instruction budget for benchmark
// runs, reduced from the harness default (100k) to keep -bench wall
// time reasonable.
const benchInsts = 20_000

// runExperiment executes experiment id once per iteration and reports
// its headline metrics.
func runExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, mkey := range metrics {
				if v, ok := res.Metrics[mkey]; ok {
					b.ReportMetric(v, mkey)
				}
			}
		}
	}
}

// BenchmarkE1_Configs regenerates the machine-configuration table.
func BenchmarkE1_Configs(b *testing.B) {
	runExperiment(b, "E1")
}

// BenchmarkE2_MediumSpeedup regenerates the headline per-benchmark
// speedup figure on the medium 2-core CMP (paper: Fg-STP ≈ +18% over
// Core Fusion geomean).
func BenchmarkE2_MediumSpeedup(b *testing.B) {
	runExperiment(b, "E2", "geomean_fgstp_vs_single", "geomean_fgstp_vs_fusion")
}

// BenchmarkE3_SmallSpeedup regenerates the small-CMP speedup figure
// (paper: ≈ +7% over Core Fusion).
func BenchmarkE3_SmallSpeedup(b *testing.B) {
	runExperiment(b, "E3", "geomean_fgstp_vs_single", "geomean_fgstp_vs_fusion")
}

// BenchmarkE4_Ablation regenerates the mechanism-ablation figure.
func BenchmarkE4_Ablation(b *testing.B) {
	runExperiment(b, "E4", "geomean_full", "geomean_no-replication",
		"geomean_no-dep-speculation")
}

// BenchmarkE5_CommLatency regenerates the communication-latency
// sensitivity figure.
func BenchmarkE5_CommLatency(b *testing.B) {
	runExperiment(b, "E5", "geomean_lat1", "geomean_lat8")
}

// BenchmarkE6_CommBandwidth regenerates the bandwidth/queue
// sensitivity figure.
func BenchmarkE6_CommBandwidth(b *testing.B) {
	runExperiment(b, "E6", "geomean_bw1", "geomean_bw4")
}

// BenchmarkE7_Window regenerates the lookahead-window sensitivity
// figure.
func BenchmarkE7_Window(b *testing.B) {
	runExperiment(b, "E7", "geomean_win64", "geomean_win512")
}

// BenchmarkE8_Characterisation regenerates the mechanism
// characterisation table.
func BenchmarkE8_Characterisation(b *testing.B) {
	runExperiment(b, "E8", "mean_core1_frac", "mean_replicated_frac",
		"mean_comm_per_kinst")
}

// BenchmarkE9_StoreSets regenerates the memory-dependence predictor
// sensitivity figure.
func BenchmarkE9_StoreSets(b *testing.B) {
	runExperiment(b, "E9", "geomean_conservative", "geomean_perfect")
}

// BenchmarkE10_SuiteSplit regenerates the SPECint/SPECfp breakdown.
func BenchmarkE10_SuiteSplit(b *testing.B) {
	runExperiment(b, "E10", "medium_int_fgstp_vs_fusion", "medium_fp_fgstp_vs_fusion")
}

// Sampled-simulation wall-clock: the checkpointed SimPoint estimate
// against the full detailed run it replaces, on 10× extended traces of
// the two longest-running kernels. The sampled side carries its whole
// pipeline — BBV clustering, functional warming to the checkpoints,
// and the parallel slice fan-out — so the ratio is the end-to-end cost
// a -simpoint user pays. The PR 9 perf record pairs these entries:
// SimpointSampled must finish in under 25% of SimpointFull.
const (
	simpointBenchInsts    = 1_000_000 // 10× the harness default budget
	simpointBenchInterval = 10_000
)

// simpointBenchKernels are the longest kernels in the suite — the only
// ones whose timed regions naturally run past the 10× budget (most
// workloads terminate earlier and would clamp the trace).
var simpointBenchKernels = []string{"calculix", "bwaves"}

func simpointBenchSetup(b *testing.B, name string) (config.Machine, workloads.Workload) {
	b.Helper()
	m, err := config.ByName("medium")
	if err != nil {
		b.Fatal(err)
	}
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("workload %q not found", name)
	}
	return m, w
}

// BenchmarkSimpointFull is the baseline: a full detailed Fg-STP run
// over the extended trace.
func BenchmarkSimpointFull(b *testing.B) {
	for _, name := range simpointBenchKernels {
		b.Run(name, func(b *testing.B) {
			m, w := simpointBenchSetup(b, name)
			tr := w.Trace(simpointBenchInsts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cmp.Run(m, cmp.ModeFgSTP, tr)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(res.IPC(), "ipc")
				}
			}
		})
	}
}

// BenchmarkSimpointSampled is the checkpointed sampled estimate of the
// same run, timed alone: representatives chosen, checkpoints captured,
// slices simulated in parallel.
func BenchmarkSimpointSampled(b *testing.B) {
	const warmup = simpointBenchInterval // fgstpsim's default: one interval
	for _, name := range simpointBenchKernels {
		b.Run(name, func(b *testing.B) {
			m, w := simpointBenchSetup(b, name)
			tr := w.Trace(simpointBenchInsts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reps, err := simpoint.Choose(tr, simpointBenchInterval, experiments.DefaultSimpointK)
				if err != nil {
					b.Fatal(err)
				}
				slices, err := simpoint.Slices(reps, simpointBenchInterval, warmup, tr.Len())
				if err != nil {
					b.Fatal(err)
				}
				boundaries := make([]int, len(slices))
				for j, sl := range slices {
					boundaries[j] = sl.WStart
				}
				sim, err := cmp.NewSliceSim(m, cmp.ModeFgSTP, tr, boundaries)
				if err != nil {
					b.Fatal(err)
				}
				est, err := simpoint.EstimateCPI(reps, simpointBenchInterval, warmup, tr.Len(), 0, sim.Run)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(est.IPC, "ipc")
					b.ReportMetric(float64(est.SampledInsts)/float64(tr.Len()), "sampled_frac")
				}
			}
		})
	}
}
