package cmp

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/ooo"
	"repro/internal/trace"
)

// SliceSim runs detailed simulation of individual trace slices from
// checkpoints: one functional-warming pass over the trace captures a
// restartable snapshot at every requested boundary, then each Run
// constructs a fresh machine *at* its slice's checkpoint and simulates
// only the slice. Snapshots are immutable after construction and every
// Run builds its own machine, so concurrent Runs (sampled slices fanned
// out as independent sched jobs) are safe.
type SliceSim struct {
	m     config.Machine
	mode  Mode
	tr    *trace.Trace
	snaps map[int]*checkpoint.Snapshot
}

// NewSliceSim captures checkpoints for the given slice boundaries
// (warmup-start positions, in trace instructions) with a single
// functional pass over tr in ascending-boundary order.
func NewSliceSim(m config.Machine, mode Mode, tr *trace.Trace, boundaries []int) (*SliceSim, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if _, err := ParseMode(string(mode)); err != nil {
		return nil, err
	}
	sorted := append([]int(nil), boundaries...)
	sort.Ints(sorted)
	if len(sorted) > 0 && sorted[0] < 0 {
		return nil, fmt.Errorf("sampled: negative slice boundary %d", sorted[0])
	}
	snaps, err := checkpoint.Capture(m.Core.Predictor, Hierarchy(m, mode), tr, sorted)
	if err != nil {
		return nil, err
	}
	return &SliceSim{m: m, mode: mode, tr: tr, snaps: snaps}, nil
}

// WithMode returns a slice simulator of mode over s's trace and
// checkpoints, so modes that warm one Hierarchy (single and Fg-STP)
// share a capture pass. A mode that warms another is an error.
func (s *SliceSim) WithMode(mode Mode) (*SliceSim, error) {
	if Hierarchy(s.m, mode) != Hierarchy(s.m, s.mode) {
		return nil, fmt.Errorf("sampled: %s checkpoints do not fit %s", s.mode, mode)
	}
	c := *s
	c.mode = mode
	return &c, nil
}

// Run simulates the slice [wstart, end) in detail from the checkpoint
// at wstart, treating [wstart, start) as warmup and [start, end) as the
// measured region. It returns the measured region's cycle and
// instruction counts. A boundary not captured at construction is an
// error.
func (s *SliceSim) Run(wstart, start, end int) (cycles, insts uint64, err error) {
	if wstart > start || start >= end || end > s.tr.Len() {
		return 0, 0, fmt.Errorf("sampled: bad slice %d/%d/%d (trace %d)", wstart, start, end, s.tr.Len())
	}
	snap, ok := s.snaps[wstart]
	if !ok {
		return 0, 0, fmt.Errorf("sampled: no checkpoint at %d", wstart)
	}
	mach, _, err := build(s.m, s.mode, s.tr.Slice(wstart, end), snap, Options{})
	if err != nil {
		return 0, 0, err
	}
	total, warmEnd, err := ooo.Run(mach, end-wstart, true, uint64(start-wstart))
	if err != nil {
		return 0, 0, err
	}
	return uint64(total - warmEnd), uint64(end - start), nil
}
