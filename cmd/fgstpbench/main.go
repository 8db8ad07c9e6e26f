// Command fgstpbench regenerates the tables and figures of the Fg-STP
// evaluation. Each experiment E1..E10 corresponds to one table or
// figure of the paper as reconstructed in DESIGN.md; EXPERIMENTS.md
// records the measured results against the paper's reported shape.
//
// Experiments fan their independent simulations out over a worker pool
// (internal/sched); -jobs sets the worker count. Results are
// byte-identical for any -jobs value and any -format, so stdout can be
// diffed between serial and parallel runs — wall-time and memory
// reporting goes to stderr.
//
// Usage:
//
//	fgstpbench -experiment E2          # one experiment
//	fgstpbench -experiment all         # the full paper evaluation (E1..E10)
//	fgstpbench -experiment E11         # extension: energy model
//	fgstpbench -experiment E12         # extension: adaptive reconfiguration
//	fgstpbench -insts 50000            # per-run instruction budget
//	fgstpbench -jobs 8                 # worker goroutines (default GOMAXPROCS)
//	fgstpbench -format json            # machine-readable output (text, json, csv)
//	fgstpbench -list                   # enumerate experiments
//	fgstpbench -inject mcf             # poison one workload (fault-injection demo)
//	fgstpbench -cpuprofile cpu.pprof   # write a CPU profile (go tool pprof)
//	fgstpbench -memprofile mem.pprof   # write a heap profile at exit
//
// -hotblock is accepted and ignored: it switched the hot-block timing
// memoization engine, which is gone (see DESIGN.md, "Removed: hot-block
// timing memoization").
//
// Failed simulation cells never abort the evaluation: they render as
// FAIL(reason) in the tables, drop out of the geomeans (noted per
// experiment), and the remaining experiments still run. Exit codes:
//
//	0  every simulation succeeded
//	1  partial failure: some cells failed, the evaluation completed
//	2  fatal: bad usage or setup (unknown experiment, invalid flags),
//	   or the evaluation was interrupted (Ctrl-C / SIGTERM cancel
//	   between simulations and abort promptly)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so the profile-writing defers execute
// before the process exits.
func run() int {
	var (
		exp        = flag.String("experiment", "all", "experiment id (E1..E10) or \"all\"")
		insts      = flag.Uint64("insts", 100_000, "dynamic instructions per simulation")
		jobs       = flag.Int("jobs", 0, "worker goroutines for simulation fan-out (<= 0: GOMAXPROCS)")
		format     = flag.String("format", "text", "output format: text, json or csv")
		list       = flag.Bool("list", false, "list experiments and exit")
		inject     = flag.String("inject", "", "poison this workload: its Fg-STP runs get a stalled inter-core channel")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Bool("hotblock", true, "deprecated, ignored")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		for _, id := range experiments.ExtensionIDs() {
			fmt.Println(id + " (extension)")
		}
		return 0
	}

	valid := false
	for _, f := range experiments.Formats() {
		valid = valid || f == *format
	}
	if !valid {
		fmt.Fprintf(os.Stderr, "fgstpbench: unknown -format %q (want text, json or csv)\n", *format)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fgstpbench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fgstpbench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fgstpbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fgstpbench:", err)
			}
		}()
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = []string{*exp}
	}

	// One session across all experiments: the single-flight caches
	// capture each workload trace and baseline run once for the whole
	// invocation instead of once per experiment.
	session := experiments.NewSession(*insts, *jobs)
	if *inject != "" {
		if _, ok := workloads.ByName(*inject); !ok {
			fmt.Fprintf(os.Stderr, "fgstpbench: unknown workload %q for -inject\n", *inject)
			return 2
		}
		session.Poison(*inject)
	}
	// Ctrl-C / SIGTERM cancels the evaluation between simulations: the
	// cell in flight finishes (the watchdog bounds it), every queued
	// cell is skipped, and the run exits promptly instead of finishing
	// the full job list.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	fmt.Fprintf(os.Stderr, "fgstpbench: %d worker(s)\n", sched.Workers(*jobs))
	total := time.Now()
	failedCells := 0
	results := make([]*experiments.Result, 0, len(ids))
	for _, id := range ids {
		start := time.Now()
		res, err := session.RunCtx(ctx, id)
		if err != nil {
			// Unknown experiment id: a usage error, not a degraded run.
			fmt.Fprintln(os.Stderr, "fgstpbench:", err)
			return 2
		}
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "fgstpbench: interrupted during %s; aborting evaluation\n", id)
			return 2
		}
		failedCells += len(res.Failures)
		results = append(results, res)
		fmt.Fprintf(os.Stderr, "fgstpbench: %s in %.2fs\n", id, time.Since(start).Seconds())
	}
	// Render at the end so stdout carries only the chosen format;
	// timing lives on stderr either way.
	if err := experiments.WriteFormat(os.Stdout, *format, *insts, results); err != nil {
		fmt.Fprintln(os.Stderr, "fgstpbench:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "fgstpbench: total %.2fs (%d experiment(s), -jobs %d)\n",
		time.Since(total).Seconds(), len(ids), sched.Workers(*jobs))
	if rss, ok := metrics.PeakRSS(); ok {
		fmt.Fprintf(os.Stderr, "fgstpbench: peak RSS %.1f MiB\n", float64(rss)/(1<<20))
	}
	if failedCells > 0 {
		fmt.Fprintf(os.Stderr, "fgstpbench: %d simulation cell(s) failed; see FAIL lines above\n", failedCells)
		return 1
	}
	return 0
}
