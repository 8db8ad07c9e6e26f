// Package cmp composes the chip multiprocessor: it builds a machine in
// one of the three execution modes the experiments compare — a single
// conventional core, the two cores fused Core Fusion style, or the two
// cores reconfigured as an Fg-STP pair — and runs a workload trace on
// it. This is the top-level simulation API the CLI tools, examples and
// benchmarks use.
package cmp

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/corefusion"
	"repro/internal/hotblock"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/ooo"
	"repro/internal/stats"
	"repro/internal/trace"
)

// EngineVersion identifies the timing semantics of the simulation
// engine. It is part of every content-addressed result-cache key
// (internal/resultcache): byte-identical determinism makes cached
// results correct by construction *for one engine version*, so any
// change that can alter a cycle count, a counter, or an export byte —
// timing-model changes, new counters, schema or formatting changes —
// MUST bump this string, or stale cache entries will be served as
// current results. Pure speedups proven byte-identical (event-driven
// cycle skipping) do not require a bump.
//
// Since PR 8 the store also memoises individual simulation *cells*
// (one Run of one mode on one workload, as JSON-encoded stats.Run
// documents composed back into rendered exports), so the rule covers
// more than rendered bytes: any change that alters ANY counter or
// cycle count of ANY (config, mode, trace) cell must bump, even if no
// CLI export happens to render that counter — a stale cell entry would
// be silently recomposed into fresh documents.
const EngineVersion = "fgstp-engine/7"

// Mode selects how the 2-core CMP executes a single thread.
type Mode string

// Execution modes.
const (
	// ModeSingle runs one conventional core; the second core idles.
	ModeSingle Mode = "single"
	// ModeFusion fuses the two cores into one double-width core with
	// the Core Fusion overhead terms.
	ModeFusion Mode = "corefusion"
	// ModeFgSTP reconfigures the two cores as an Fg-STP pair.
	ModeFgSTP Mode = "fgstp"
)

// Modes lists all execution modes in comparison order.
func Modes() []Mode { return []Mode{ModeSingle, ModeFusion, ModeFgSTP} }

// ParseMode validates a mode string.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeSingle, ModeFusion, ModeFgSTP:
		return Mode(s), nil
	}
	return "", fmt.Errorf("unknown mode %q (want single, corefusion or fgstp)", s)
}

// ErrLivelock classifies watchdog failures: errors.Is(err, ErrLivelock)
// holds for any run the livelock watchdog aborted, in any mode. Use
// errors.As with *core.LivelockError or *ooo.LivelockError to recover
// the forensic snapshot.
var ErrLivelock = ooo.ErrLivelock

// Faults is the fault-injection hook threaded into the machine under
// test (see internal/faults for concrete injectors). Channel faults
// only apply to ModeFgSTP — the other modes have no inter-core channel.
type Faults = core.Faults

// Options bundles the optional knobs of a run: fault injection and
// event instrumentation. The zero value reproduces Run.
type Options struct {
	// Faults optionally injects deterministic faults into the run; only
	// ModeFgSTP has an inter-core channel to stall.
	Faults Faults
	// Sink receives pipeline events from the machine under test; they
	// render into a Chrome trace via metrics.WriteChromeTrace.
	Sink metrics.Sink
	// Deprecated: HotBlock is read by nothing. bench/'s traced run still
	// sets it until ROADMAP item 4; item 5 then deletes the field.
	HotBlock *hotblock.Counters
}

// Run simulates tr on machine m in the given mode.
func Run(m config.Machine, mode Mode, tr *trace.Trace) (stats.Run, error) {
	return RunOpts(m, mode, tr, Options{})
}

// RunOpts simulates tr on machine m in the given mode under the full
// option set.
func RunOpts(m config.Machine, mode Mode, tr *trace.Trace, opts Options) (stats.Run, error) {
	if err := m.Validate(); err != nil {
		return stats.Run{}, err
	}
	if tr.Len() == 0 {
		return stats.Run{}, fmt.Errorf("empty trace %q", tr.Name)
	}
	mach, summarize, err := build(m, mode, tr, nil, opts)
	if err != nil {
		return stats.Run{}, err
	}
	cycles, err := ooo.Drain(mach, tr.Len())
	if err != nil {
		return stats.Run{}, err
	}
	return summarize(cycles), nil
}

// build is the one place that knows how each mode's machine is built
// and restored. It assembles mode's machine over tr, starts it warm
// from snap when snap is non-nil, installs opts' faults and sink, and
// returns it with the summary of a finished run.
func build(m config.Machine, mode Mode, tr *trace.Trace, snap *checkpoint.Snapshot, opts Options) (ooo.Stepper, func(cycles int64) stats.Run, error) {
	switch mode {
	case ModeSingle, ModeFusion:
		ccfg := m.Core
		if mode == ModeFusion {
			ccfg = corefusion.FusedConfig(m)
		}
		hier, err := mem.NewHierarchy(Hierarchy(m, mode))
		if err != nil {
			return nil, nil, err
		}
		c, err := ooo.NewCore(ccfg, hier, ooo.NewTraceStream(tr), nil)
		if err != nil {
			return nil, nil, err
		}
		if snap != nil {
			// The dependence predictor stays cold (see checkpoint).
			if err := hier.SetState(&snap.Hier); err != nil {
				return nil, nil, err
			}
			if err := c.Predictor().SetState(snap.Pred); err != nil {
				return nil, nil, err
			}
		}
		c.SetEventSink(opts.Sink, 0)
		return c, func(cycles int64) stats.Run {
			r := ooo.Summarize(c, tr, string(mode), cycles)
			if mode == ModeFusion {
				r.Set("active_cores", 2) // fusion powers both cores
			}
			return r
		}, nil
	case ModeFgSTP:
		mach, err := core.NewMachine(m, tr)
		if err != nil {
			return nil, nil, err
		}
		if snap != nil {
			if err := mach.Restore(snap); err != nil {
				return nil, nil, err
			}
		}
		mach.SetFaults(opts.Faults)
		if opts.Sink != nil {
			mach.SetEventSink(opts.Sink)
		}
		return mach, mach.Summarize, nil
	}
	return nil, nil, fmt.Errorf("unknown mode %q", mode)
}

// Hierarchy is the cache geometry of mode's core, and so the one its
// checkpoints warm: the per-core one, which each of the Fg-STP pair's
// private hierarchies has, or the fused core's doubled L1s.
func Hierarchy(m config.Machine, mode Mode) mem.HierarchyConfig {
	if mode == ModeFusion {
		return corefusion.FusedHierarchy(m)
	}
	return m.Hier
}

// RunAll runs tr in every mode and returns the results keyed by mode.
// Map iteration order is random: callers producing ordered output must
// index by mode in Modes() order.
func RunAll(m config.Machine, tr *trace.Trace) (map[Mode]stats.Run, error) {
	out := make(map[Mode]stats.Run, len(Modes()))
	for _, mode := range Modes() {
		r, err := Run(m, mode, tr)
		if err != nil {
			return nil, fmt.Errorf("mode %s: %w", mode, err)
		}
		out[mode] = r
	}
	return out, nil
}
