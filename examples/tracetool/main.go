// Tracetool: inspect a workload's dynamic trace — instruction mix,
// branch behaviour, memory footprint and register-dependence distance
// profile — the properties the Fg-STP partitioner keys on. Also shows a
// disassembly excerpt and the steering unit's partition of the first
// instructions.
//
//	go run ./examples/tracetool [-workload mcf] [-insts 50000] [-steer 24]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	name := flag.String("workload", "mcf", "workload to inspect")
	insts := flag.Uint64("insts", 50_000, "instructions to trace")
	steerN := flag.Int("steer", 24, "steered instructions to display")
	flag.Parse()

	w, ok := workloads.ByName(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	fmt.Printf("workload %s (%s)\n%s\n\n", w.Name, w.Suite, w.Description)

	// Static view: a disassembly excerpt around the timed region.
	p := w.Program()
	dis := strings.Split(p.Disassemble(), "\n")
	start := 0
	for i, line := range dis {
		if strings.HasPrefix(line, "main:") {
			start = i
			break
		}
	}
	end := start + 20
	if end > len(dis) {
		end = len(dis)
	}
	fmt.Println("disassembly (timed region start):")
	for _, line := range dis[start:end] {
		fmt.Println("  " + line)
	}
	fmt.Println()

	// Dynamic view.
	tr := w.Trace(*insts)
	s := tr.ComputeStats()
	tb := stats.NewTable("dynamic profile", "metric", "value")
	tb.AddRowf("instructions", s.Insts)
	tb.AddRowf("static PCs", s.StaticPCs)
	tb.AddRowf("branch ratio", s.BranchRatio())
	tb.AddRowf("taken ratio", s.TakenRatio())
	tb.AddRowf("memory ratio", s.MemRatio())
	tb.AddRowf("unique words touched", s.UniqueWords)
	tb.AddRowf("short-dep ratio (<=8)", s.ShortDepRatio())
	fmt.Print(tb.String())

	mix := stats.NewTable("\ninstruction mix", "class", "count", "fraction")
	for c := 0; c < isa.NumClasses; c++ {
		if s.ByClass[c] == 0 {
			continue
		}
		mix.AddRowf(isa.Class(c).String(), s.ByClass[c],
			float64(s.ByClass[c])/float64(s.Insts))
	}
	fmt.Print(mix.String())

	fmt.Println("\ndependence distance histogram (2^k dynamic instructions):")
	for b, c := range s.DepDists {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", 1+c*50/s.TotalDeps)
		fmt.Printf("  2^%-2d %8d %s\n", b, c, bar)
	}

	// Partition view: how the Fg-STP steering unit splits the stream.
	m, err := core.NewMachine(config.Medium(), tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsteering of the first %d instructions (core 0 | core 1):\n", *steerN)
	for i := 0; i < *steerN && i < tr.Len(); i++ {
		home, replica := core.SteerDecision(m, uint64(i))
		inst := fmt.Sprintf("#%d %s", i, tr.At(i))
		tag := ""
		if replica {
			tag = " [replicated]"
		}
		if home == 0 {
			fmt.Printf("  %-34s |%s\n", inst, tag)
		} else {
			fmt.Printf("  %34s | %s%s\n", "", inst, tag)
		}
	}
}
