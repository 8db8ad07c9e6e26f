package workloads

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 29 {
		t.Fatalf("registered %d workloads, want 29 (SPEC 2006)", len(all))
	}
	ints, fps := Suite("int"), Suite("fp")
	if len(ints) != 12 {
		t.Errorf("int suite has %d, want 12", len(ints))
	}
	if len(fps) != 17 {
		t.Errorf("fp suite has %d, want 17", len(fps))
	}
	if len(Names()) != 29 {
		t.Errorf("Names() returned %d", len(Names()))
	}
	if _, ok := ByName("mcf"); !ok {
		t.Error("mcf not found by name")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("bogus name found")
	}
}

// Every kernel must build, validate, define a timed region, and yield a
// substantial trace.
func TestEveryKernelBuildsAndTraces(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Program()
			if err := p.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if _, ok := p.Labels["main"]; !ok {
				t.Fatal("kernel has no \"main\" label")
			}
			if w.Description == "" {
				t.Error("missing description")
			}
			tr := w.Trace(30_000)
			if tr.Len() != 30_000 {
				t.Fatalf("trace yielded %d instructions, want 30000 (timed region too short)", tr.Len())
			}
		})
	}
}

// Each kernel's timed region must run for at least 100k instructions so
// the experiment harness can take 100k-instruction measurements.
func TestKernelTimedRegionLength(t *testing.T) {
	for _, w := range All() {
		tr := w.Trace(100_000)
		if tr.Len() < 100_000 {
			t.Errorf("%s: timed region only %d instructions, want >= 100000", w.Name, tr.Len())
		}
	}
}

// The suite must be heterogeneous: each kernel's documented character
// must show up in its trace statistics.
func TestKernelCharacter(t *testing.T) {
	stats := make(map[string]trace.Stats)
	for _, w := range All() {
		stats[w.Name] = w.Trace(60_000).ComputeStats()
	}

	// mcf: memory-bound pointer chase with a big footprint.
	mcf := stats["mcf"]
	if mcf.MemRatio() < 0.15 {
		t.Errorf("mcf mem ratio %.2f, want load-heavy", mcf.MemRatio())
	}
	if mcf.UniqueWords < 10_000 {
		t.Errorf("mcf unique words %d, want large footprint", mcf.UniqueWords)
	}

	// perlbench/gobmk/astar: branchy.
	for _, name := range []string{"perlbench", "gobmk", "astar", "xalancbmk"} {
		s := stats[name]
		if br := s.BranchRatio(); br < 0.08 {
			t.Errorf("%s branch ratio %.3f, want branchy", name, br)
		}
	}

	// hmmer: very few branches per instruction (wide straight-line DP).
	hm := stats["hmmer"]
	if br := hm.BranchRatio(); br > 0.08 {
		t.Errorf("hmmer branch ratio %.3f, want low", br)
	}

	// FP kernels must actually be FP-dominated.
	for _, name := range []string{"bwaves", "milc", "namd", "lbm", "sphinx3",
		"soplex", "povray", "gamess", "gromacs", "cactusADM", "leslie3d",
		"dealII", "calculix", "GemsFDTD", "tonto", "wrf", "zeusmp"} {
		s := stats[name]
		fp := s.ByClass[isa.ClassFPAlu] + s.ByClass[isa.ClassFPMul] + s.ByClass[isa.ClassFPDiv]
		if float64(fp)/float64(s.Insts) < 0.10 {
			t.Errorf("%s FP fraction %.3f, want >= 0.10", name, float64(fp)/float64(s.Insts))
		}
	}

	// namd, povray and the chemistry/hydro kernels must exercise the
	// divider/sqrt.
	for _, name := range []string{"namd", "povray", "gamess", "gromacs",
		"calculix", "zeusmp"} {
		if stats[name].ByClass[isa.ClassFPDiv] == 0 {
			t.Errorf("%s has no FP divides", name)
		}
	}

	// sjeng: call/return heavy (jump class).
	if j := stats["sjeng"].ByClass[isa.ClassJump]; j < 1000 {
		t.Errorf("sjeng jumps %d, want call/ret heavy", j)
	}

	// Stores must appear where the kernels claim them.
	for _, name := range []string{"bzip2", "omnetpp", "lbm", "bwaves"} {
		if stats[name].Stores == 0 {
			t.Errorf("%s has no stores", name)
		}
	}
}

// Branch behaviour must differ across kernels (the predictors see a
// range of difficulty).
func TestBranchDiversity(t *testing.T) {
	lo, hi := 2.0, -1.0
	for _, w := range All() {
		s := w.Trace(40_000).ComputeStats()
		r := s.TakenRatio()
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi-lo < 0.2 {
		t.Errorf("taken ratios span only [%.2f, %.2f]; suite too homogeneous", lo, hi)
	}
}

// Kernels are memoised: two Program calls return the same pointer, and
// two traces are identical.
func TestProgramMemoisationAndDeterminism(t *testing.T) {
	w, _ := ByName("perlbench")
	if w.Program() != w.Program() {
		t.Error("Program not memoised")
	}
	t1 := w.Trace(5000)
	t2 := w.Trace(5000)
	if t1.Len() != t2.Len() {
		t.Fatal("trace lengths differ")
	}
	for i := range t1.Insts {
		if t1.Insts[i] != t2.Insts[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

// The executor's functional results stay sane: kernels that accumulate
// into registers should not be all-zero (guards against dead kernels
// whose main loops do no work).
func TestKernelsDoWork(t *testing.T) {
	for _, w := range All() {
		tr := w.Trace(30_000)
		s := tr.ComputeStats()
		if s.ByClass[isa.ClassIntAlu] == 0 {
			t.Errorf("%s: no integer ALU work at all", w.Name)
		}
		if s.TotalDeps == 0 {
			t.Errorf("%s: no register dependences — kernel is dead code", w.Name)
		}
	}
}

// Register conventions: no kernel may clobber the global constant
// registers after init — verified by checking that R26..R28 are never a
// destination inside the timed region.
func TestConstRegistersPreserved(t *testing.T) {
	for _, w := range All() {
		tr := w.Trace(50_000)
		for i := range tr.Insts {
			d := &tr.Insts[i]
			if d.Dst == isa.R26 || d.Dst == isa.R27 || d.Dst == isa.R28 {
				t.Errorf("%s: instruction %s writes constant register", w.Name, d)
				break
			}
		}
	}
}

// The "main" labels must actually skip the fill loops: the timed region
// of kernels with big init must not start with the init code.
func TestMainSkipsInit(t *testing.T) {
	w, _ := ByName("libquantum")
	p := w.Program()
	mainIdx := p.Labels["main"]
	e := program.NewExecutor(p)
	skipped := e.RunUntil(mainIdx)
	if skipped < 60_000*6 {
		t.Errorf("libquantum skipped only %d init instructions", skipped)
	}
}
