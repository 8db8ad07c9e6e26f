package cmp

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ooo"
	"repro/internal/workloads"
)

// An injected permanent channel stall must drive the Fg-STP machine
// into the livelock watchdog: the run ends with ErrLivelock wrapping a
// populated forensic snapshot, not a hang and not a panic.
func TestInjectedStallTripsWatchdog(t *testing.T) {
	// gobmk exercises the inter-core channel heavily at this trace
	// length, so a permanent stall is guaranteed to starve a consumer.
	w, _ := workloads.ByName("gobmk")
	tr := w.Trace(3000)
	stall := faults.ChannelStall(0)
	_, err := RunOpts(config.Medium(), ModeFgSTP, tr, Options{Faults: stall})
	if err == nil {
		t.Fatal("stalled machine completed")
	}
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("error %v is not ErrLivelock", err)
	}
	if !errors.Is(err, ooo.ErrLivelock) {
		t.Error("cmp.ErrLivelock must alias ooo.ErrLivelock")
	}
	var le *core.LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("error %v carries no *core.LivelockError snapshot", err)
	}
	if le.SinceCommit < ooo.LivelockWindow {
		t.Errorf("watchdog fired after only %d no-progress cycles (window %d)",
			le.SinceCommit, ooo.LivelockWindow)
	}
	if le.Cycles < le.SinceCommit {
		t.Errorf("cycle count %d below no-progress span %d", le.Cycles, le.SinceCommit)
	}
	if le.TraceLen != tr.Len() {
		t.Errorf("snapshot trace length %d, want %d", le.TraceLen, tr.Len())
	}
	committed := le.Committed[0] + le.Committed[1]
	if committed >= uint64(tr.Len()) {
		t.Errorf("livelocked run committed the whole trace (%d of %d)", committed, tr.Len())
	}
	if le.NextCommit >= uint64(tr.Len()) {
		t.Errorf("commit frontier %d past trace end %d", le.NextCommit, tr.Len())
	}
	if le.InFlight[0]+le.InFlight[1] == 0 {
		t.Error("snapshot shows no in-flight instructions: the stall starved nothing")
	}
	if !strings.Contains(err.Error(), "livelock") {
		t.Errorf("error %q does not mention livelock", err.Error())
	}
	if stall.Polls() == 0 {
		t.Error("injected stall was never consulted")
	}
}

// The same stall injected twice must produce the identical diagnostic —
// the watchdog is deterministic.
func TestInjectedLivelockDeterministic(t *testing.T) {
	w, _ := workloads.ByName("gobmk")
	tr := w.Trace(2000)
	_, err1 := RunOpts(config.Small(), ModeFgSTP, tr, Options{Faults: faults.ChannelStall(0)})
	_, err2 := RunOpts(config.Small(), ModeFgSTP, tr, Options{Faults: faults.ChannelStall(0)})
	if err1 == nil || err2 == nil {
		t.Fatal("stalled machine completed")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("nondeterministic diagnostics:\n  %v\n  %v", err1, err2)
	}
}

// An installed injector that never fires must behave exactly like Run.
// Any injector turns off the machine's event skip, so this also pins
// the faulted (ticked) drain to the clean (skipping) one.
func TestDormantFaultMatchesRun(t *testing.T) {
	w, _ := workloads.ByName("soplex")
	tr := w.Trace(2000)
	a, err := Run(config.Small(), ModeFgSTP, tr)
	if err != nil {
		t.Fatal(err)
	}
	stall := faults.ChannelStall(1 << 40)
	b, err := RunOpts(config.Small(), ModeFgSTP, tr, Options{Faults: stall})
	if err != nil {
		t.Fatal(err)
	}
	if stall.Polls() != 0 {
		t.Fatalf("dormant stall refused %d grants", stall.Polls())
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("dormant injector changed the run\n clean:   %s\n faulted: %s", aj, bj)
	}
}

// Config validation failures must report every violation at once.
func TestValidateReportsAllViolations(t *testing.T) {
	m := config.Medium()
	m.FgSTP.Steering = "bogus"
	m.FgSTP.CommLatency = -1
	m.Core.ROBSize = 0
	w, _ := workloads.ByName("mcf")
	_, err := Run(m, ModeFgSTP, w.Trace(100))
	if err == nil {
		t.Fatal("invalid machine accepted")
	}
	for _, want := range []string{"steering", "comm latency", "ROB"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("multi-error %q misses violation %q", err.Error(), want)
		}
	}
}
