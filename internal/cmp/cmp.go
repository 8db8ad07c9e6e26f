// Package cmp composes the chip multiprocessor: it builds a machine in
// one of the three execution modes the experiments compare — a single
// conventional core, the two cores fused Core Fusion style, or the two
// cores reconfigured as an Fg-STP pair — and runs a workload trace on
// it. This is the top-level simulation API the CLI tools, examples and
// benchmarks use.
package cmp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/corefusion"
	"repro/internal/hotblock"
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
// current results. Pure speedups proven byte-identical (cycle
// skipping, hot-block replay) do not require a bump.
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

// Options bundles the optional knobs of a run: fault injection, event
// instrumentation, and hot-block telemetry. The zero value reproduces
// Run.
type Options struct {
	// Faults optionally injects deterministic faults into the run; only
	// ModeFgSTP has an inter-core channel to stall.
	Faults Faults
	// Sink receives pipeline events from the machine under test;
	// attaching one disables hot-block replay (replayed spans emit no
	// per-uop events). The events render into a Chrome trace via
	// metrics.WriteChromeTrace.
	Sink metrics.Sink
	// HotBlock, when non-nil, receives the run's replay telemetry.
	// Memoization engages in the single and corefusion modes unless the
	// process-wide default disables it (hotblock.SetDefaultDisabled);
	// the Fg-STP pair never replays, so its counters stay zero. The
	// telemetry never enters the stats.Run summary: experiment output is
	// byte-identical with memoization on and off.
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
	switch mode {
	case ModeSingle:
		return ooo.RunTraceWith(m.Core, m.Hier, tr, ooo.RunOptions{Sink: opts.Sink, HotBlock: opts.HotBlock})
	case ModeFusion:
		return corefusion.RunWith(m, tr, ooo.RunOptions{Sink: opts.Sink, HotBlock: opts.HotBlock})
	case ModeFgSTP:
		return core.RunWith(m, tr, core.RunOptions{Faults: opts.Faults, Sink: opts.Sink})
	default:
		return stats.Run{}, fmt.Errorf("unknown mode %q", mode)
	}
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
