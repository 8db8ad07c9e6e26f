package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	PaperEvalName    = "paper-eval"
	WholeProgramName = "whole-program"
	FgstpdMixedName  = "fgstpd-mixed"
)

// Workloads lists the workload names in BENCHMARK.json order.
var Workloads = []string{PaperEvalName, WholeProgramName, FgstpdMixedName}

// Env is what one workload repetition needs.
type Env struct {
	Bin    string // directory holding the built commands
	Tmp    string // temporary directory of this run
	Golden Golden
	Seed   uint64
	Rec    *Recorder // client spans (fgstpd-mixed); nil records none
}

func (e Env) bin(cmd string) string { return filepath.Join(e.Bin, cmd) }

// Outcome is one repetition of a workload's fixed work.
type Outcome struct {
	// Attempted counts operations: CLI runs, sim requests and sweep
	// units. Failed counts the ones that exited nonzero, returned a
	// non-200 or a FAIL document, produced output off its golden digest
	// or hit the cache when they should have missed (or the reverse).
	Attempted, Failed int
	Errors            []string // the first few failures
	Wall              time.Duration
	CPU               time.Duration // children's user+sys (the daemon's, for fgstpd-mixed)
	MaxRSS            int64         // bytes, the largest child
	// Info holds the workload's own numbers: request latencies and
	// cache outcomes for fgstpd-mixed, sampled-estimate accuracy for
	// whole-program.
	Info map[string]float64
	// Metricz is fgstpd's /metricz scrape at the end of the run.
	Metricz map[string]float64
}

const maxErrors = 5

func (o *Outcome) fail(err error) {
	o.Failed++
	if len(o.Errors) < maxErrors {
		o.Errors = append(o.Errors, err.Error())
	}
}

func (o *Outcome) addProc(p Proc) {
	o.Wall += p.Wall
	o.CPU += p.CPU
	if p.MaxRSS > o.MaxRSS {
		o.MaxRSS = p.MaxRSS
	}
}

// Run performs one repetition of the named workload.
func Run(ctx context.Context, name string, env Env) (Outcome, error) {
	o := Outcome{Info: map[string]float64{}}
	switch name {
	case PaperEvalName:
		runPaperEval(ctx, env, &o)
	case WholeProgramName:
		runWholeProgram(ctx, env, &o)
	case FgstpdMixedName:
		runFgstpdMixed(ctx, env, &o)
	default:
		return o, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
	}
	return o, nil
}

// workers is the parallelism every run asks for, -jobs for the CLIs and
// -workers for fgstpd: the benchmark host has two cores.
const workers = "2"

// runCLI runs one canonical request through its command and checks the
// output against the golden digest.
func runCLI(ctx context.Context, env Env, req Request, o *Outcome) []byte {
	o.Attempted++
	p, err := RunCmd(ctx, env.bin(req.Cmd), append(append([]string(nil), req.Args...), "-jobs", workers)...)
	o.addProc(p)
	if err == nil {
		err = env.Golden.Check(req, p.Stdout)
	}
	if err != nil {
		o.fail(err)
		return nil
	}
	return p.Stdout
}

func runPaperEval(ctx context.Context, env Env, o *Outcome) {
	runCLI(ctx, env, PaperEval(), o)
}

func runWholeProgram(ctx context.Context, env Env, o *Outcome) {
	var docs [][]byte
	for _, r := range WholeProgram() {
		if out := runCLI(ctx, env, r.Request(), o); out != nil {
			docs = append(docs, out)
		}
	}
	acc, err := SampledAccuracyOf(docs)
	if err != nil {
		o.fail(err)
		return
	}
	o.Info["sampled_ipc_err_pct"] = acc.IPCErrPct
	o.Info["sampled_ci_miss_frac"] = acc.CIMissFrac
	o.Info["sampled_frac"] = acc.SampledFrac
}

// SampledAccuracy compares the sampled SimPoint estimates of fgstp.sim/1
// documents with the full runs they sit beside.
type SampledAccuracy struct {
	Estimates   int
	IPCErrPct   float64 // mean |sampled - full| / full, in percent
	CIMissFrac  float64 // share of estimates whose 95% CI excludes the full IPC
	SampledFrac float64 // instructions simulated in detail / trace instructions
}

// SampledAccuracyOf parses fgstp.sim/1 documents and scores every
// estimate whose mode also has a full run.
func SampledAccuracyOf(docs [][]byte) (SampledAccuracy, error) {
	var acc SampledAccuracy
	var errSum float64
	var misses int
	var sampled, total uint64
	for _, b := range docs {
		var doc struct {
			Workload string `json:"workload"`
			Results  []struct {
				Run *struct{ Cycles, Insts uint64 } `json:"run"`
			} `json:"results"`
			Simpoint []struct {
				Error        string  `json:"error"`
				IPC          float64 `json:"ipc"`
				Low          float64 `json:"ipc_ci_low"`
				High         float64 `json:"ipc_ci_high"`
				SampledInsts uint64  `json:"sampled_insts"`
				TraceInsts   uint64  `json:"trace_insts"`
			} `json:"simpoint"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return acc, fmt.Errorf("parsing a sim document: %w", err)
		}
		if len(doc.Simpoint) != len(doc.Results) {
			return acc, fmt.Errorf("%s: %d estimates for %d modes", doc.Workload, len(doc.Simpoint), len(doc.Results))
		}
		for i, e := range doc.Simpoint {
			run := doc.Results[i].Run
			if e.Error != "" || run == nil || run.Cycles == 0 {
				return acc, fmt.Errorf("%s: estimate %d has no full run to compare with", doc.Workload, i)
			}
			full := float64(run.Insts) / float64(run.Cycles)
			errSum += math.Abs(e.IPC-full) / full
			if full < e.Low || full > e.High {
				misses++
			}
			sampled += e.SampledInsts
			total += e.TraceInsts
			acc.Estimates++
		}
	}
	if acc.Estimates == 0 || total == 0 {
		return acc, fmt.Errorf("no sampled estimates to score")
	}
	acc.IPCErrPct = 100 * errSum / float64(acc.Estimates)
	acc.CIMissFrac = float64(misses) / float64(acc.Estimates)
	acc.SampledFrac = float64(sampled) / float64(total)
	return acc, nil
}

// setupSamples is how many fresh starts one run times; the median of
// them is the run's setup_s, steady even when one start is slow.
const setupSamples = 31

// Setup measures the set-up a user of the workload pays before any
// work starts: for the CLI workloads, exec to exit of the command's
// -list; for fgstpd-mixed, daemon spawn to /readyz 200 over a fresh
// cache. It returns the median of setupSamples fresh starts.
func Setup(ctx context.Context, name string, env Env) (time.Duration, error) {
	var sample func() (time.Duration, error)
	switch name {
	case PaperEvalName, WholeProgramName:
		bin := env.bin("fgstpbench")
		if name == WholeProgramName {
			bin = env.bin("fgstpsim")
		}
		sample = func() (time.Duration, error) {
			p, err := RunCmd(ctx, bin, "-list")
			return p.Wall, err
		}
	case FgstpdMixedName:
		sample = func() (time.Duration, error) {
			dir, err := os.MkdirTemp(env.Tmp, "setup-")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			d, ready, err := StartDaemon(ctx, env.bin("fgstpd"), dir)
			if err != nil {
				return 0, err
			}
			// Kill, not Stop: fgstpd installs its SIGTERM handler only
			// after it starts serving, so a SIGTERM this soon after
			// /readyz can end it before it drains. The workload run
			// still checks the graceful stop.
			d.Kill()
			return ready, nil
		}
	default:
		return 0, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
	}
	xs := make([]float64, setupSamples)
	for i := range xs {
		d, err := sample()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		xs[i] = d.Seconds()
	}
	return time.Duration(Median(xs) * float64(time.Second)), nil
}
