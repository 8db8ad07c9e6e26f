// Command fgstpsim runs one workload on one machine configuration in
// one execution mode and prints a full simulation report.
//
// Usage:
//
//	fgstpsim [flags]
//
//	-workload name   workload to run (default mcf); -list shows all
//	-machine  name   machine preset: small | medium (default medium)
//	-mode     name   single | corefusion | fgstp | all (default all)
//	-insts    n      dynamic instructions to simulate (default 100000)
//	-jobs     n      worker goroutines for the whole report: every
//	                 mode's full run and, with -simpoint, every mode's
//	                 sampled estimate share one pool of n workers, the
//	                 longest task first (default GOMAXPROCS; output is
//	                 identical for any n)
//	-format   name   output format: text | json | csv (default text)
//	-config   file   JSON machine config overriding -machine
//	-simpoint n      also estimate IPC by checkpointed SimPoint
//	                 sampling: slice the trace into n-instruction
//	                 intervals, cluster them, capture a warm checkpoint
//	                 at each representative and simulate only
//	                 warmup+interval instructions per point; each
//	                 mode's estimate is one task on the -jobs pool,
//	                 overlapping the full runs. The weighted IPC and
//	                 its 95% confidence interval join the report
//	                 (json/csv carry a "simpoint" block) and the
//	                 footer compares them against the full-run IPC
//	                 (0 = off)
//	-savetrace file  capture the workload trace to a file and exit
//	-loadtrace file  replay a previously saved trace
//	-tracejson file  write a Chrome trace-event file of the pipeline
//	                 (open in Perfetto or chrome://tracing; traces the
//	                 fgstp mode, or the single selected -mode)
//	-cpuprofile file write a CPU profile (go tool pprof)
//	-memprofile file write a heap profile at exit
//	-dumpconfig      print the machine preset as JSON and exit
//	-list            list workloads and exit
//	-inject  fault   inject a fault: "livelock" stalls the Fg-STP
//	                 inter-core channel from cycle 0; "panic" makes the
//	                 first channel poll panic inside the engine (the
//	                 scheduler contains it as a structured failure)
//	-hotblock        hot-block timing memoization (default on; output is
//	                 byte-identical on or off — disable to time the
//	                 plain engine). Replay telemetry (templates, replays,
//	                 replayed-cycle coverage) prints to stderr.
//
// A failed mode renders as a FAILED line; the other modes still
// report. Stderr ends with footers that never reach stdout: the
// report's pool use ("report 6 tasks on 2 workers, busy … over …
// (utilization …)"), hot-block replay telemetry and peak RSS.
// Exit codes:
//
//	0  every requested mode simulated successfully
//	1  partial failure: at least one mode failed, the report completed
//	2  fatal: bad usage or setup (unknown workload/mode, bad config or
//	   trace file)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/hotblock"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so the profile-writing defers execute
// before the process exits.
func run() int {
	var (
		workload   = flag.String("workload", "mcf", "workload name (-list to enumerate)")
		machine    = flag.String("machine", "medium", "machine preset: small | medium")
		mode       = flag.String("mode", "all", "execution mode: single | corefusion | fgstp | all")
		insts      = flag.Uint64("insts", 100_000, "dynamic instructions to simulate")
		jobs       = flag.Int("jobs", 0, "worker goroutines for the report's full runs and sampled estimates (<= 0: GOMAXPROCS)")
		format     = flag.String("format", "text", "output format: text, json or csv")
		configPath = flag.String("config", "", "JSON machine configuration file")
		dumpConfig = flag.Bool("dumpconfig", false, "print the machine preset as JSON and exit")
		list       = flag.Bool("list", false, "list workloads and exit")
		saveTrace  = flag.String("savetrace", "", "capture the workload trace to this file and exit")
		loadTrace  = flag.String("loadtrace", "", "replay a trace file instead of capturing the workload")
		traceJSON  = flag.String("tracejson", "", "write a Chrome trace-event file of the pipeline to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		inject     = flag.String("inject", "", "fault to inject: \"livelock\" stalls the Fg-STP inter-core channel; \"panic\" panics inside the engine (contained)")
		simpointN  = flag.Int("simpoint", 0, "SimPoint interval size in instructions (0 = no sampled estimate)")
		hotBlock   = flag.Bool("hotblock", true, "hot-block timing memoization (output is byte-identical on or off)")
	)
	flag.Parse()
	hotblock.SetDefaultDisabled(!*hotBlock)

	if *list {
		listWorkloads()
		return 0
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "fgstpsim: unknown -format %q (want text, json or csv)\n", *format)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fgstpsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fgstpsim:", err)
			}
		}()
	}

	m, err := loadMachine(*machine, *configPath)
	if err != nil {
		return fatal(err)
	}
	if *dumpConfig {
		data, err := m.ToJSON()
		if err != nil {
			return fatal(err)
		}
		fmt.Println(string(data))
		return 0
	}

	// Banner lines stay off stdout for machine-readable formats, so
	// json/csv output parses as-is.
	banner := os.Stdout
	if *format != "text" {
		banner = os.Stderr
	}
	var tr *trace.Trace
	if *loadTrace != "" {
		var err error
		tr, err = trace.LoadFile(*loadTrace)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(banner, "trace    %s (%d instructions from %s)\n", tr.Name, tr.Len(), *loadTrace)
		fmt.Fprintf(banner, "machine  %s\n\n", m.Name)
	} else {
		w, ok := workloads.ByName(*workload)
		if !ok {
			return fatal(fmt.Errorf("unknown workload %q (use -list)", *workload))
		}
		fmt.Fprintf(banner, "workload %s (%s): %s\n", w.Name, w.Suite, w.Description)
		fmt.Fprintf(banner, "machine  %s, %d instructions\n\n", m.Name, *insts)
		tr = w.Trace(*insts)
		if uint64(tr.Len()) < *insts {
			fmt.Fprintf(banner, "note: timed region ended after %d instructions\n\n", tr.Len())
		}
	}
	if *saveTrace != "" {
		if err := tr.SaveFile(*saveTrace); err != nil {
			return fatal(err)
		}
		fmt.Printf("trace saved to %s\n", *saveTrace)
		return 0
	}

	modes := []cmp.Mode{cmp.ModeSingle, cmp.ModeFusion, cmp.ModeFgSTP}
	if *mode != "all" {
		md, err := cmp.ParseMode(*mode)
		if err != nil {
			return fatal(err)
		}
		modes = []cmp.Mode{md}
	}

	// One task list on one worker pool: every mode's full run and, with
	// -simpoint, every mode's checkpointed sampled estimate, longest
	// first. Results come back at their mode's index, so the report reads
	// identically for any -jobs. A failed mode reports FAILED without
	// aborting its siblings. fgstpd's /v1/sim runs the same
	// experiments.RunSim, which also validates -inject.
	rep, err := experiments.RunSim(context.Background(), m, tr, modes, *inject,
		experiments.SimpointParams{Interval: *simpointN, Warmup: -1}, *jobs)
	if err != nil {
		return fatal(err)
	}
	runs, errs, ests := rep.Runs, rep.Errs, rep.Ests

	if *traceJSON != "" {
		// Re-simulate the traced mode with the event recorder attached
		// (instrumentation never perturbs timing, so the trace matches
		// the report above).
		traced := modes[len(modes)-1]
		if err := writeChromeTrace(*traceJSON, m, traced, tr); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fgstpsim: pipeline trace (%s mode) written to %s\n", traced, *traceJSON)
	}

	failed := 0
	for i := range errs {
		if errs[i] != nil {
			failed++
		}
	}
	if err := experiments.WriteSimFormatEst(os.Stdout, *format, m.Name, tr, modes, runs, errs, ests); err != nil {
		return fatal(err)
	}
	// The footer goes to the banner stream so json/csv stdout stays
	// parseable.
	for i := range ests {
		e := &ests[i]
		if e.Error != "" {
			fmt.Fprintf(banner, "simpoint [%s] FAILED: %s\n", e.Mode, e.Error)
			continue
		}
		line := fmt.Sprintf("simpoint [%s] interval %d, %d points: IPC %.3f ci=[%.3f, %.3f]",
			e.Mode, e.Interval, e.Points, e.IPC, e.IPCLow, e.IPCHigh)
		if errs[i] == nil {
			full := runs[i].IPC()
			line += fmt.Sprintf(" vs full %.3f (%+.1f%%)", full, (e.IPC/full-1)*100)
		}
		fmt.Fprintln(banner, line)
	}
	fmt.Fprintf(os.Stderr, "fgstpsim: report %d tasks on %d workers, busy %.2f s over %.2f s (utilization %.2f)\n",
		rep.Tasks, rep.Workers, rep.Busy.Seconds(), rep.Wall.Seconds(), rep.Utilization())
	if *hotBlock {
		printHotBlockFooter(rep.HotBlock, modes, runs, errs)
	}
	if rss, ok := metrics.PeakRSS(); ok {
		fmt.Fprintf(os.Stderr, "fgstpsim: peak RSS %.1f MiB\n", float64(rss)/(1<<20))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fgstpsim: %d of %d mode(s) failed\n", failed, len(modes))
		return 1
	}
	return 0
}

// writeChromeTrace records one instrumented run of md and writes the
// events as a Chrome trace-event file (Perfetto, chrome://tracing).
func writeChromeTrace(path string, m config.Machine, md cmp.Mode, tr *trace.Trace) error {
	rec := &metrics.Recorder{}
	if _, err := cmp.RunOpts(m, md, tr, cmp.Options{Sink: rec}); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	meta := map[string]string{
		"workload": tr.Name,
		"machine":  m.Name,
		"mode":     string(md),
	}
	return metrics.WriteChromeTraceRecorder(f, rec, meta)
}

// printHotBlockFooter aggregates the per-mode replay telemetry into a
// metrics registry under the hotblock_* export names and reports replay
// coverage on stderr — the side channel keeps the stdout report
// byte-identical with memoization on or off. Only single and
// corefusion replay; fgstp cycles count toward the coverage denominator
// but the pair's hooked cores never replay.
func printHotBlockFooter(ctrs []hotblock.Counters, modes []cmp.Mode, runs []stats.Run, errs []error) {
	var agg hotblock.Counters
	var cycles uint64
	for i := range ctrs {
		agg.Merge(ctrs[i])
		if errs[i] == nil {
			cycles += runs[i].Cycles
		}
	}
	reg := metrics.NewRegistry()
	agg.AddTo(reg)
	cov := 0.0
	if cycles > 0 {
		cov = 100 * float64(agg.ReplayedCycles) / float64(cycles)
	}
	fmt.Fprintf(os.Stderr, "fgstpsim: hotblock replay coverage %.1f%% (%d of %d cycles, %d replays of %d templates)\n",
		cov, agg.ReplayedCycles, cycles, agg.Replays, agg.Templates)
	for _, s := range reg.Sorted() {
		fmt.Fprintf(os.Stderr, "fgstpsim:   %-32s %.0f\n", s.Name, s.Value)
	}
}

func loadMachine(preset, path string) (config.Machine, error) {
	if path == "" {
		return config.ByName(preset)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return config.Machine{}, err
	}
	return config.FromJSON(data)
}

func listWorkloads() {
	tb := stats.NewTable("workloads", "name", "suite", "description")
	for _, w := range workloads.All() {
		tb.AddRow(w.Name, w.Suite, w.Description)
	}
	fmt.Print(tb.String())
}

// fatal reports a setup/usage error (exit 2 — distinct from exit 1,
// which means the report completed with failed simulations).
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "fgstpsim:", err)
	return 2
}
