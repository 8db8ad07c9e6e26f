package perf

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// Corpus is the benchmark's fixed workload roster: the 29 kernels the
// simulator ships, in its own listing order. The benchmark defines its
// inputs itself, so a kernel added to the simulator later does not
// change what a run measures.
var Corpus = []string{
	"bwaves", "milc", "namd", "soplex", "povray", "lbm", "sphinx3", "gamess",
	"gromacs", "cactusADM", "leslie3d", "dealII", "calculix", "GemsFDTD",
	"tonto", "wrf", "zeusmp", "perlbench", "bzip2", "gcc", "mcf", "gobmk",
	"hmmer", "sjeng", "libquantum", "h264ref", "omnetpp", "astar", "xalancbmk",
}

// Machines are the two machine presets every workload covers.
var Machines = []string{"medium", "small"}

// Request is one canonical job, written as the command line whose
// stdout it must equal byte for byte. The same string keys the golden
// digests, so a daemon response and the CLI run it mirrors share one
// entry.
type Request struct {
	Cmd  string   // fgstpbench or fgstpsim
	Args []string // flags, -format json last
}

// Key is the canonical request string.
func (r Request) Key() string { return r.Cmd + " " + strings.Join(r.Args, " ") }

// PaperEval is the paper-eval workload's one request: the full
// evaluation at the default budget.
func PaperEval() Request {
	return Request{"fgstpbench", []string{"-experiment", "all", "-insts", "100000", "-format", "json"}}
}

// WholeProgramInsts exceeds every kernel's timed region, so each
// whole-program run simulates its kernel to completion.
const (
	WholeProgramInsts    = 2_000_000
	WholeProgramSimpoint = 10_000
)

// WholeRun is one whole-program run: a kernel on a preset.
type WholeRun struct{ Workload, Machine string }

// Request is the run's command line.
func (r WholeRun) Request() Request {
	return Request{"fgstpsim", []string{"-workload", r.Workload, "-machine", r.Machine,
		"-insts", fmt.Sprint(WholeProgramInsts), "-simpoint", fmt.Sprint(WholeProgramSimpoint), "-format", "json"}}
}

// WholeProgram lists the whole-program runs: every kernel on both
// presets, medium first, each with a sampled SimPoint estimate.
func WholeProgram() []WholeRun {
	var out []WholeRun
	for _, m := range Machines {
		for _, w := range Corpus {
			out = append(out, WholeRun{w, m})
		}
	}
	return out
}

// SimKey is one /v1/sim document of the fgstpd-mixed workload.
type SimKey struct {
	Workload, Machine, Mode string
	Insts                   uint64
}

// Request is the CLI run the daemon's response must equal.
func (k SimKey) Request() Request {
	return Request{"fgstpsim", []string{"-workload", k.Workload, "-machine", k.Machine,
		"-mode", k.Mode, "-insts", fmt.Sprint(k.Insts), "-format", "json"}}
}

// SimKeys is the sim client's document space: 29 kernels × 2 presets ×
// 2 modes × 2 budgets = 232 keys.
func SimKeys() []SimKey {
	var out []SimKey
	for _, w := range Corpus {
		for _, m := range Machines {
			for _, md := range []string{"all", "fgstp"} {
				for _, n := range []uint64{20_000, 50_000} {
					out = append(out, SimKey{w, m, md, n})
				}
			}
		}
	}
	return out
}

// SweepExperiments and SweepInsts span the sweep client's document
// space: one fgstp.bench/1 document per experiment × budget.
var (
	SweepExperiments = []string{"E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"}
	SweepInsts       = []uint64{20_000, 30_000}
)

// Unit is one sweep unit document: one experiment at one budget.
type Unit struct {
	Experiment string
	Insts      uint64
}

// Request is the CLI run the unit document must equal.
func (u Unit) Request() Request {
	return Request{"fgstpbench", []string{"-experiment", u.Experiment, "-insts", fmt.Sprint(u.Insts), "-format", "json"}}
}

// SweepUnits is the sweep client's document space (18 units).
func SweepUnits() []Unit { return SweepReq{SweepExperiments}.Units() }

// SweepReq is one /v1/sweep request: two experiments at both budgets.
type SweepReq struct {
	Experiments []string
}

// Units lists the request's units in the daemon's order (experiment
// major).
func (q SweepReq) Units() []Unit {
	var out []Unit
	for _, e := range q.Experiments {
		for _, n := range SweepInsts {
			out = append(out, Unit{e, n})
		}
	}
	return out
}

// Client identifiers: each client's script comes from its own random
// stream, so neither depends on how the other's requests interleave.
const (
	simClient   = 1
	sweepClient = 2
)

// SimScript is the sim client's requests for a seed: every key exactly
// twice, shuffled. The first request of a key misses the daemon's cache
// and the second hits it, so each seed does the same work — 232 misses
// and 232 hits — in its own order.
func SimScript(seed uint64) []SimKey {
	keys := SimKeys()
	script := append(append([]SimKey(nil), keys...), keys...)
	rng := rand.New(rand.NewPCG(seed, simClient))
	rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
	return script
}

// SweepRequests is how many sweeps the sweep client sends per run.
const SweepRequests = 50

// SweepScript is the sweep client's requests for a seed: each picks two
// distinct experiments. Every experiment is drawn in practice (missing
// one in 50 draws has odds below 1e-5), and FirstSeen tells exactly
// which units miss.
func SweepScript(seed uint64) []SweepReq {
	rng := rand.New(rand.NewPCG(seed, sweepClient))
	out := make([]SweepReq, SweepRequests)
	for i := range out {
		p := rng.Perm(len(SweepExperiments))
		out[i] = SweepReq{[]string{SweepExperiments[p[0]], SweepExperiments[p[1]]}}
	}
	return out
}

// FirstSeen marks, for a sequence of document keys, which occurrence is
// the first: the request a fresh cache must miss. All later ones hit.
func FirstSeen(keys []string) []bool {
	seen := make(map[string]bool, len(keys))
	out := make([]bool, len(keys))
	for i, k := range keys {
		out[i] = !seen[k]
		seen[k] = true
	}
	return out
}
