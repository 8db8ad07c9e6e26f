// Package trace captures the dynamic instruction stream of a program
// and provides the random-access view the timing models need: the
// trace-driven simulators index instructions by global sequence number
// to model fetch, squash-and-refetch, and the Fg-STP lookahead window.
package trace

import (
	"repro/internal/isa"
	"repro/internal/program"
)

// Trace is a captured dynamic instruction stream. Instruction i has
// sequence number i; squash/refetch in the timing models is re-reading
// from an earlier index. Instruction i's next-PC is instruction i+1's
// PC, so the trace keeps only the last instruction's.
type Trace struct {
	// Name identifies the workload the trace came from.
	Name string
	// Insts is the dynamic stream in program order. It may share its
	// storage with other traces (see Slice): never write to it.
	Insts []isa.DynInst
	// endPC is the next-PC of the last instruction: where execution
	// went after the captured stream ended.
	endPC uint64
}

// Capture runs p functionally for at most max dynamic instructions
// (0 = to completion) and returns the captured trace.
func Capture(p *program.Program, max uint64) *Trace {
	return CaptureRegion(p, 0, max)
}

// CaptureRegion runs p functionally, discards the first skip dynamic
// instructions (a kernel's initialisation phase), then captures at most
// max instructions (0 = to completion). Captured sequence numbers
// start at zero so timing models see a dense trace.
func CaptureRegion(p *program.Program, skip, max uint64) *Trace {
	e := program.NewExecutor(p)
	if skip > 0 {
		e.Run(skip, nil)
	}
	return capture(p.Name, e, max)
}

// CaptureFromLabel runs p until execution first reaches the named
// label, then captures at most max instructions (0 = to completion).
// It falls back to capturing from the start when the label is absent.
// Sequence numbers start at zero.
func CaptureFromLabel(p *program.Program, label string, max uint64) *Trace {
	e := program.NewExecutor(p)
	if idx, ok := p.Labels[label]; ok {
		e.RunUntil(idx)
	}
	return capture(p.Name, e, max)
}

// capture records at most max instructions (0 = to completion) from
// e's current position, then the next-PC of the last one.
func capture(name string, e *program.Executor, max uint64) *Trace {
	t := &Trace{Name: name}
	if max > 0 {
		t.Insts = make([]isa.DynInst, 0, max)
	}
	e.Run(max, func(d *isa.DynInst) bool {
		t.Insts = append(t.Insts, *d)
		return true
	})
	t.endPC = e.PC()
	return t
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Insts) }

// At returns the instruction with sequence number i. The pointer
// aliases the trace's storage and must be treated as read-only.
func (t *Trace) At(i int) *isa.DynInst { return &t.Insts[i] }

// nextPC returns the address of the dynamic instruction that follows
// instruction i: instruction i+1's PC, or for the last instruction the
// next-PC recorded at capture.
func (t *Trace) nextPC(i int) uint64 {
	if i+1 < len(t.Insts) {
		return t.Insts[i+1].PC
	}
	return t.endPC
}

// Stats summarises the dynamic character of a trace: operation mix,
// control behaviour, memory behaviour and register dependence
// distances. These are the workload properties the Fg-STP partitioner
// exploits, so the tracetool example prints them per kernel.
type Stats struct {
	Name  string
	Insts int

	ByClass [isa.NumClasses]int

	Branches    int
	Taken       int
	StaticPCs   int
	Loads       int
	Stores      int
	UniqueWords int

	// DepDists is a histogram of producer→consumer distances in dynamic
	// instructions, bucketed by powers of two: bucket k counts
	// distances in [2^k, 2^(k+1)). 16 buckets cover up to 64 Ki.
	DepDists [16]int
	// ShortDeps counts dependences with distance ≤ 8 — the ones that
	// make fine-grain partitioning expensive when split across cores.
	ShortDeps int
	TotalDeps int
}

// ComputeStats scans the trace once and returns its summary. Memory
// footprint counting is capped at 1M unique words to bound memory.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Name: t.Name, Insts: len(t.Insts)}
	pcs := make(map[uint64]struct{})
	words := make(map[uint64]struct{})
	lastWriter := make(map[isa.Reg]uint64, isa.NumRegs)
	var srcBuf [3]isa.Reg

	for i := range t.Insts {
		d, seq := &t.Insts[i], uint64(i)
		s.ByClass[d.Class]++
		pcs[d.PC] = struct{}{}
		switch d.Class {
		case isa.ClassBranch:
			s.Branches++
			if d.Taken() {
				s.Taken++
			}
		case isa.ClassLoad:
			s.Loads++
			if len(words) < 1<<20 {
				words[d.Addr] = struct{}{}
			}
		case isa.ClassStore:
			s.Stores++
			if len(words) < 1<<20 {
				words[d.Addr] = struct{}{}
			}
		}
		for _, r := range d.Sources(srcBuf[:0]) {
			if w, ok := lastWriter[r]; ok {
				dist := seq - w
				s.TotalDeps++
				if dist <= 8 {
					s.ShortDeps++
				}
				s.DepDists[log2Bucket(dist)]++
			}
		}
		if d.HasDst() {
			lastWriter[d.Dst] = seq
		}
	}
	s.StaticPCs = len(pcs)
	s.UniqueWords = len(words)
	return s
}

func log2Bucket(v uint64) int {
	b := 0
	for v > 1 && b < 15 {
		v >>= 1
		b++
	}
	return b
}

// TakenRatio returns the fraction of conditional branches taken.
func (s *Stats) TakenRatio() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.Branches)
}

// BranchRatio returns conditional branches per instruction.
func (s *Stats) BranchRatio() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.Branches) / float64(s.Insts)
}

// MemRatio returns memory operations per instruction.
func (s *Stats) MemRatio() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.Loads+s.Stores) / float64(s.Insts)
}

// ShortDepRatio returns the fraction of register dependences with
// dynamic distance ≤ 8.
func (s *Stats) ShortDepRatio() float64 {
	if s.TotalDeps == 0 {
		return 0
	}
	return float64(s.ShortDeps) / float64(s.TotalDeps)
}

// Slice returns the sub-trace [start, end) — the unit of
// phase-granularity studies (adaptive reconfiguration runs each phase
// on the better machine mode) and of SimPoint slices. The result is a
// view: its records are the parent's, renumbered from zero by
// position, and slicing allocates only the Trace header.
func (t *Trace) Slice(start, end int) *Trace {
	if start < 0 {
		start = 0
	}
	if end > len(t.Insts) {
		end = len(t.Insts)
	}
	if start >= end {
		return &Trace{Name: t.Name}
	}
	// The capacity limit keeps an append to the view from writing into
	// the parent's records.
	return &Trace{Name: t.Name, Insts: t.Insts[start:end:end], endPC: t.nextPC(end - 1)}
}
