// Package faults provides deterministic fault injection for the
// simulation engine. Tests and the CLI tools use it to prove the
// fault-tolerance paths actually fire: corrupted trace bytes must be
// rejected by the loader, mutated machine configs must be caught by
// validation, and stalled inter-core channels must trip the livelock
// watchdog rather than hang the run.
//
// Everything is seedable and reproducible: the same seed yields the
// same corruption, so a failing fuzz or smoke case replays exactly.
package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/config"
)

// Injector is a seedable source of deterministic faults.
type Injector struct {
	rng *rand.Rand
}

// New returns an injector whose fault choices are a pure function of
// seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// CorruptBytes returns a copy of data with n bytes flipped at
// rng-chosen offsets (XOR with a rng-chosen non-zero mask). The input
// is never modified. Empty input comes back empty.
func (in *Injector) CorruptBytes(data []byte, n int) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if len(out) == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		pos := in.rng.Intn(len(out))
		mask := byte(1 + in.rng.Intn(255))
		out[pos] ^= mask
	}
	return out
}

// Truncate returns a prefix of data of rng-chosen length in [0,
// len(data)) — always strictly shorter than the input when the input is
// non-empty. The input is never modified.
func (in *Injector) Truncate(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	n := in.rng.Intn(len(data))
	out := make([]byte, n)
	copy(out, data[:n])
	return out
}

// MutateMachine applies one rng-chosen invalidating mutation to m and
// returns a description of what broke. Every mutation violates a
// documented Validate() constraint, so config validation must reject
// the mutated machine.
func (in *Injector) MutateMachine(m *config.Machine) string {
	switch in.rng.Intn(6) {
	case 0:
		m.FgSTP.Window = 0
		return "fgstp window zeroed"
	case 1:
		m.FgSTP.CommLatency = -1
		return "negative comm latency"
	case 2:
		m.FgSTP.Steering = "bogus"
		return "unknown steering policy"
	case 3:
		m.Core.ROBSize = 0
		return "core ROB zeroed"
	case 4:
		m.Hier.L1D.LineBytes = 7
		return "non-power-of-two L1D line"
	default:
		m.Fusion.ExtraFrontend = -3
		return "negative fusion overhead"
	}
}

// Stall is a fault injector (cmp.Faults / core.Faults) that permanently
// refuses inter-core channel grants to every destination core from
// cycle From on. Installed on an Fg-STP machine it starves whichever
// core waits on a cross-core value, pins the commit frontier and drives
// the run into a genuine livelock — the watchdog, not the injector,
// must then abort the run.
type Stall struct {
	// From is the first cycle the channel refuses grants.
	From int64
	// polls counts ChannelStalled calls that answered true, as
	// evidence the fault was actually exercised.
	polls int64
}

// ChannelStall returns a permanent channel stall active from cycle
// from.
func ChannelStall(from int64) *Stall { return &Stall{From: from} }

// ChannelStalled implements the engine's fault hook.
func (s *Stall) ChannelStalled(dst int, now int64) bool {
	if now >= s.From {
		s.polls++
		return true
	}
	return false
}

// Polls reports how many times the stall actually refused a grant.
func (s *Stall) Polls() int64 { return s.polls }

func (s *Stall) String() string {
	return fmt.Sprintf("channel stall from cycle %d", s.From)
}

// PanicStall is a chaos-drill injector: the first inter-core channel
// poll at or after cycle From panics inside the engine. The panic must
// be contained by the scheduler (sched.protect) and surface as a
// structured *sched.PanicError — never kill the process. Only the
// Fg-STP machine polls channel faults, so the other modes are immune.
type PanicStall struct {
	// From is the first cycle the poll panics.
	From int64
}

// ChannelPanic returns a fault that panics on the first channel poll
// at or after cycle from.
func ChannelPanic(from int64) *PanicStall { return &PanicStall{From: from} }

// ChannelStalled implements the engine's fault hook by panicking.
func (p *PanicStall) ChannelStalled(dst int, now int64) bool {
	if now >= p.From {
		panic(fmt.Sprintf("chaos drill: injected panic on channel poll to core %d at cycle %d", dst, now))
	}
	return false
}

func (p *PanicStall) String() string {
	return fmt.Sprintf("channel panic from cycle %d", p.From)
}
