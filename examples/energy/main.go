// Energy: compare the three execution modes on performance AND energy
// using the activity-based model in internal/energy — the perf/W trade
// the paper's power-wall motivation implies. (An extension of the
// reproduction, not a paper figure.)
//
//	go run ./examples/energy [-workload milc] [-insts 60000]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	name := flag.String("workload", "milc", "workload to measure")
	insts := flag.Uint64("insts", 60_000, "instructions to simulate")
	flag.Parse()

	w, ok := workloads.ByName(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	tr := w.Trace(*insts)
	machine := config.Medium()
	weights := energy.Default()

	runs, err := cmp.RunAll(machine, tr)
	if err != nil {
		log.Fatal(err)
	}
	single := runs[cmp.ModeSingle]
	baseB, err := energy.Estimate(&single, weights)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s on the %s machine, %d instructions\n\n",
		w.Name, machine.Name, tr.Len())
	tb := stats.NewTable("performance and energy (arbitrary energy units)",
		"mode", "IPC", "speedup", "energy", "energy ratio", "EPI", "EDP gain")
	for _, mode := range cmp.Modes() {
		r := runs[mode]
		b, err := energy.Estimate(&r, weights)
		if err != nil {
			log.Fatal(err)
		}
		c := energy.Against(&single, baseB, &r, b)
		tb.AddRowf(string(mode), r.IPC(), c.Speedup,
			fmt.Sprintf("%.0f", b.Total), c.EnergyRatio, b.EPI, c.EDPGain)
	}
	fmt.Print(tb.String())

	fgstp := runs[cmp.ModeFgSTP]
	b, _ := energy.Estimate(&fgstp, weights)
	fmt.Println("\nFg-STP energy breakdown:")
	for _, comp := range stats.Names(b.ByComponent) {
		v := b.ByComponent[comp]
		fmt.Printf("  %-10s %12.0f  (%.1f%%)\n", comp, v, v/b.Total*100)
	}
}
