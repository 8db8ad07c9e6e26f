// Command fgstpperf is the repository's benchmark. It builds the
// simulator's commands, runs one workload against them as a black box
// (child processes and HTTP), checks every output against the golden
// digests, and prints the metrics BENCHMARK.json declares as one JSON
// line. Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload paper-eval --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload fgstpd-mixed --seed 1 --trace 1
//	bash bench/run.sh compare setA setB
//	bash bench/run.sh golden [-check] [-hotblock=false]
//
// --trace 0 prints the end-to-end metrics. --trace 1 builds and runs
// the traced run (bench/fgstpperf/traced, build tag fgstpperf_trace),
// which prints the per-layer metrics instead.
//
// A run measures whole repetitions of the workload's fixed work for
// about --seconds: it starts another repetition only while the last one
// would still fit, so it always measures at least one, and reports the
// median over repetitions.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"repro/bench/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// runDeadline bounds one run after its builds, so that a run ends
// within 180 s.
const runDeadline = 165 * time.Second

func run(args []string) int {
	fs := flag.NewFlagSet("fgstpperf", flag.ContinueOnError)
	var (
		root     = fs.String("root", ".", "repository root")
		workload = fs.String("workload", "", "workload: paper-eval, whole-program or fgstpd-mixed")
		seed     = fs.Uint64("seed", 1, "seed of the workload's inputs")
		seconds  = fs.Int("seconds", 30, "how long to measure, in seconds (at least one repetition)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		switch cmd, rest := fs.Arg(0), fs.Args()[1:]; cmd {
		case "compare":
			return compareCmd(*root, rest)
		case "golden":
			return goldenCmd(*root, rest)
		default:
			fmt.Fprintf(os.Stderr, "fgstpperf: unknown command %q (want compare or golden)\n", cmd)
			return 2
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "fgstpperf: --trace %d (want 0 or 1)\n", *trace)
		return 2
	}
	if err := timed(*root, *workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "fgstpperf:", err)
		return 1
	}
	return 0
}

// workspace builds the simulator's commands into a fresh directory
// under the checkout's .bench_build. The caller removes the directory.
func workspace(root string) (tmp string, env perf.Env, err error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return "", env, err
	}
	tmp, err = os.MkdirTemp(build, "run-")
	if err != nil {
		return "", env, err
	}
	env = perf.Env{Bin: filepath.Join(tmp, "bin"), Tmp: tmp}
	return tmp, env, perf.Build(context.Background(), root, env.Bin)
}

func timed(root, workload string, seed uint64, seconds int, trace bool) error {
	if !validWorkload(workload) {
		return fmt.Errorf("unknown --workload %q (want one of %v)", workload, perf.Workloads)
	}
	tmp, env, err := workspace(root)
	if tmp != "" {
		defer os.RemoveAll(tmp)
	}
	if err != nil {
		return err
	}
	if trace {
		return runTraced(root, tmp, workload, seed)
	}
	if env.Golden, err = perf.LoadGolden(root); err != nil {
		return err
	}
	env.Seed = seed
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	setup, err := perf.Setup(ctx, workload, env)
	if err != nil {
		return err
	}
	var walls, cpus, rss []float64
	attempted, failed := 0, 0
	start := time.Now()
	for {
		t0 := time.Now()
		o, err := perf.Run(ctx, workload, env)
		if err != nil {
			return err
		}
		rep := time.Since(t0)
		attempted += o.Attempted
		failed += o.Failed
		walls = append(walls, o.Wall.Seconds())
		cpus = append(cpus, o.CPU.Seconds())
		rss = append(rss, float64(o.MaxRSS)/(1<<20))
		report(workload, len(walls), o)
		if time.Since(start)+rep > time.Duration(seconds)*time.Second || ctx.Err() != nil {
			break
		}
	}
	res, err := perf.NewResult(perf.EndToEnd, map[string]float64{
		"setup_s":      setup.Seconds(),
		"wall_s":       perf.Median(walls),
		"cpu_s":        perf.Median(cpus),
		"peak_rss_mib": perf.Median(rss),
	}, attempted, failed)
	if err != nil {
		return err
	}
	return res.Write(os.Stdout)
}

func validWorkload(name string) bool { return slices.Contains(perf.Workloads, name) }

// report prints one repetition's own numbers and failures to stderr.
func report(workload string, rep int, o perf.Outcome) {
	fmt.Fprintf(os.Stderr, "fgstpperf: %s repetition %d: %d ops, %d failed, wall %.3fs, cpu %.3fs, peak RSS %.1f MiB\n",
		workload, rep, o.Attempted, o.Failed, o.Wall.Seconds(), o.CPU.Seconds(), float64(o.MaxRSS)/(1<<20))
	for _, k := range sortedKeys(o.Info) {
		fmt.Fprintf(os.Stderr, "fgstpperf:   %-22s %g\n", k, o.Info[k])
	}
	for _, e := range o.Errors {
		fmt.Fprintln(os.Stderr, "fgstpperf:   FAIL", e)
	}
}

// runTraced builds the traced run and hands the workload to it; its
// stdout, ending in the per-layer result line, is this run's stdout.
func runTraced(root, tmp, workload string, seed uint64) error {
	bin := filepath.Join(tmp, "fgstpperf-traced")
	build := exec.Command("go", "build", "-C", filepath.Join(root, "bench"),
		"-tags", "fgstpperf_trace", "-o", bin, "./fgstpperf/traced")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building the traced run: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-root", root, "-tmp", tmp,
		"-workload", workload, "-seed", fmt.Sprint(seed))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	return nil
}
