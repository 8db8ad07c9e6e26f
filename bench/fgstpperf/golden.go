package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/bench/internal/perf"
)

// goldenWorkers runs two CLI processes at a time: the host has two
// cores, and each process simulates with -jobs 1.
const goldenWorkers = 2

// goldenCmd regenerates the golden digests from the CLIs' stdout, one
// process per canonical request. With -check it compares instead of
// writing; with -hotblock=false the CLIs run the plain engine, which
// must reproduce the same bytes.
func goldenCmd(root string, args []string) int {
	fs := flag.NewFlagSet("fgstpperf golden", flag.ContinueOnError)
	check := fs.Bool("check", false, "compare the CLIs' outputs with "+perf.GoldenFile+" instead of rewriting it")
	hotBlock := fs.Bool("hotblock", true, "run the CLIs with hot-block memoization (false passes -hotblock=false)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tmp, env, err := workspace(root)
	if tmp != "" {
		defer os.RemoveAll(tmp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgstpperf:", err)
		return 2
	}
	reqs := perf.AllRequests()
	digests, err := runAll(env.Bin, reqs, *hotBlock)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgstpperf:", err)
		return 1
	}
	got := perf.Golden{}
	for i, r := range reqs {
		got[r.Key()] = digests[i]
	}
	if !*check {
		if err := got.Save(root); err != nil {
			fmt.Fprintln(os.Stderr, "fgstpperf:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "fgstpperf: wrote %d digests to %s\n", len(got), perf.GoldenFile)
		return 0
	}
	want, err := perf.LoadGolden(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgstpperf:", err)
		return 2
	}
	bad := 0
	for _, k := range sortedKeys(got) {
		if want[k] != got[k] {
			fmt.Fprintf(os.Stderr, "fgstpperf: MISMATCH %s\n", k)
			bad++
		}
	}
	if len(want) != len(got) {
		fmt.Fprintf(os.Stderr, "fgstpperf: golden file has %d digests, the workloads produce %d\n", len(want), len(got))
		bad++
	}
	if bad > 0 {
		return 1
	}
	fmt.Fprintf(os.Stderr, "fgstpperf: all %d outputs match %s (hotblock %v)\n", len(got), perf.GoldenFile, *hotBlock)
	return 0
}

// runAll runs every request's CLI and returns the stdout digests in
// request order.
func runAll(bin string, reqs []perf.Request, hotBlock bool) ([]string, error) {
	digests := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < goldenWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				args := append(append([]string(nil), reqs[i].Args...), "-jobs", "1", fmt.Sprintf("-hotblock=%v", hotBlock))
				p, err := perf.RunCmd(context.Background(), filepath.Join(bin, reqs[i].Cmd), args...)
				digests[i], errs[i] = perf.Digest(p.Stdout), err
			}
		}()
	}
	for i := range reqs {
		next <- i
		if (i+1)%50 == 0 {
			fmt.Fprintf(os.Stderr, "fgstpperf: %d of %d requests\n", i+1, len(reqs))
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return digests, nil
}
