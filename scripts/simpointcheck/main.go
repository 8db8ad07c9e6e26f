// Command simpointcheck verifies the sampled-simulation accuracy
// contract: for each workload × mode, the checkpointed SimPoint
// estimate's 95% confidence interval must contain the full-run IPC.
// The tier-1 gate (scripts/check.sh) runs it on a fixed workload set;
// `-workloads all` sweeps the whole roster.
//
// Usage:
//
//	simpointcheck [-workloads mcf,gcc,...|all] [-insts 60000]
//	              [-interval 5000] [-jobs n] [-v]
//
// Exit 0 when every estimate's interval contains its full-run IPC,
// 1 otherwise, 2 on setup errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list     = flag.String("workloads", "mcf,gcc,bzip2,lbm,gobmk,hmmer", "comma-separated workload names, or \"all\"")
		machine  = flag.String("machine", "medium", "machine preset: small | medium")
		insts    = flag.Uint64("insts", 60_000, "full-trace length per workload")
		interval = flag.Int("interval", 5_000, "SimPoint interval (instructions)")
		jobs     = flag.Int("jobs", 0, "workers for each workload's full runs and estimates (<= 0: GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "print every comparison, not just failures")
	)
	flag.Parse()

	m, err := config.ByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simpointcheck:", err)
		return 2
	}
	var names []string
	if *list == "all" {
		names = workloads.Names()
	} else {
		names = strings.Split(*list, ",")
	}

	failures := 0
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "simpointcheck: unknown workload %q\n", name)
			return 2
		}
		tr := w.Trace(*insts)
		rep, err := experiments.RunSim(context.Background(), m, tr, cmp.Modes(), "",
			experiments.SimpointParams{Interval: *interval, Warmup: -1}, *jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simpointcheck:", err)
			return 2
		}
		for i, mode := range cmp.Modes() {
			e := rep.Ests[i]
			if e.Error != "" {
				fmt.Printf("FAIL %-10s %-12s estimate failed: %s\n", name, mode, e.Error)
				failures++
				continue
			}
			if err := rep.Errs[i]; err != nil {
				fmt.Printf("FAIL %-10s %-12s full run failed: %v\n", name, mode, err)
				failures++
				continue
			}
			fullIPC := rep.Runs[i].IPC()
			ok := fullIPC >= e.IPCLow && fullIPC <= e.IPCHigh
			if !ok {
				failures++
			}
			if !ok || *verbose {
				status := "ok  "
				if !ok {
					status = "FAIL"
				}
				fmt.Printf("%s %-10s %-12s full IPC %.3f, sampled %.3f ci=[%.3f, %.3f] (%d points, %.0f%% of insts)\n",
					status, name, mode, fullIPC, e.IPC, e.IPCLow, e.IPCHigh,
					e.Points, 100*float64(e.SampledInsts)/float64(tr.Len()))
			}
		}
	}
	if failures > 0 {
		fmt.Printf("simpointcheck: %d estimate(s) outside their confidence interval\n", failures)
		return 1
	}
	fmt.Printf("simpointcheck: ok (%d workloads, %d modes)\n", len(names), len(cmp.Modes()))
	return 0
}
