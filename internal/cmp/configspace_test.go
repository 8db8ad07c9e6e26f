package cmp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// configSpaceDigest is the SHA-256 over every cell summary of
// TestConfigSpacePinned, recorded on the polling engine before the
// cross-core wake protocol replaced it. A pure speedup must leave it
// unchanged; a timing-model change updates it together with
// EngineVersion.
const configSpaceDigest = "1cf41c23d40cad946f87fc199ee67573b0f31702d57a89f18cbfb4c2d1591ae3"

// configSpace returns seeded machine variants spread across the
// configuration space the two presets leave unexplored: fabric latency,
// bandwidth and queue depth, lookahead window, sequencer bandwidth,
// replication, dependence speculation and its predictors, and the
// window sizes. The first variants pin the extremes; the rest are
// random draws. Every variant passes Validate.
func configSpace(tb testing.TB) []config.Machine {
	tb.Helper()
	rng := rand.New(rand.NewSource(22))
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	var out []config.Machine
	for i := 0; i < 24; i++ {
		m := config.Small()
		if i%2 == 1 {
			m = config.Medium()
		}
		m.Name = fmt.Sprintf("%s-v%02d", m.Name, i)
		f := &m.FgSTP
		f.CommLatency = rng.Intn(13)
		f.CommBandwidth = 1 + rng.Intn(4)
		f.CommQueue = pick(1, 2, 4, 8, 16, 32)
		f.Window = pick(16, 32, 64, 128, 256, 512, 1024, 2048)
		f.FetchBandwidth = pick(2, 4, 8, 12)
		f.Replication = rng.Intn(2) == 0
		f.DepSpeculation = rng.Intn(4) != 0
		f.UseStoreSets = rng.Intn(3) == 0
		f.DepPredBits = pick(-1, 0, 4, 11)
		f.Steering = []string{"affinity", "affinity", "roundrobin", "chunk64"}[rng.Intn(4)]
		c := &m.Core
		c.ROBSize = pick(16, 32, 48, 96, 128, 256)
		c.IQSize = pick(4, 8, 16, 36, 64)
		c.LQSize = pick(4, 12, 32)
		c.SQSize = pick(4, 12, 24)
		switch i {
		case 0:
			f.CommLatency, f.CommBandwidth, f.CommQueue = 0, 4, 32
		case 1:
			f.CommLatency, f.CommBandwidth, f.CommQueue = 12, 1, 1
		case 2:
			f.Window, f.DepPredBits, f.DepSpeculation = 16, -1, true
		case 3:
			f.Window, f.UseStoreSets, f.DepSpeculation = 2048, true, true
		case 4:
			f.Steering, f.Replication, f.CommLatency = "roundrobin", false, 10
		}
		if err := m.Validate(); err != nil {
			tb.Fatalf("variant %d: %v", i, err)
		}
		out = append(out, m)
	}
	return out
}

// spanStall is a bounded channel fault: both directions refuse grants
// during cycles [from, until), then recover. refused counts the polls
// it turned down.
type spanStall struct {
	from, until int64
	refused     int
}

func (s *spanStall) ChannelStalled(dst int, now int64) bool {
	if now >= s.from && now < s.until {
		s.refused++
		return true
	}
	return false
}

// drainFgSTP runs one Fg-STP cell on a fresh machine, skipping or
// ticked, and returns its summary.
func drainFgSTP(t *testing.T, m config.Machine, tr *trace.Trace, f core.Faults, ticked bool) stats.Run {
	t.Helper()
	mach, err := core.NewMachine(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	mach.SetFaults(f)
	drain := mach.Drain
	if ticked {
		drain = mach.DrainTicked
	}
	cycles, err := drain()
	if err != nil {
		t.Fatalf("%s/%s fgstp ticked=%v: %v", m.Name, tr.Name, ticked, err)
	}
	return mach.Summarize(cycles)
}

// TestConfigSpacePinned pins the engine across the configuration space:
// 24 machine variants × 3 workloads × all 3 modes hash to one recorded
// digest, every Fg-STP cell drains identically skipping and ticked, and
// one cell drains through a bounded injected channel stall (the fault
// re-poll path). The presets alone cannot see a divergence that only
// some fabric shapes trigger. Variants run as parallel subtests; each
// writes its own summaries, hashed in variant order afterwards.
func TestConfigSpacePinned(t *testing.T) {
	var traces []*trace.Trace
	for _, name := range []string{"gcc", "hmmer", "namd"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		traces = append(traces, w.Trace(3_000))
	}
	variants := configSpace(t)
	docs := make([][][]byte, len(variants)+1)
	encode := func(t *testing.T, r stats.Run) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	t.Run("cells", func(t *testing.T) {
		for i, m := range variants {
			t.Run(m.Name, func(t *testing.T) {
				t.Parallel()
				for _, tr := range traces {
					for _, mode := range []Mode{ModeSingle, ModeFusion} {
						r, err := Run(m, mode, tr)
						if err != nil {
							t.Fatalf("%s/%s %s: %v", m.Name, tr.Name, mode, err)
						}
						docs[i] = append(docs[i], encode(t, r))
					}
					skip := encode(t, drainFgSTP(t, m, tr, nil, false))
					tick := encode(t, drainFgSTP(t, m, tr, nil, true))
					if string(skip) != string(tick) {
						t.Errorf("%s/%s: skip and tick summaries diverge\n skip: %s\n tick: %s",
							m.Name, tr.Name, skip, tick)
					}
					docs[i] = append(docs[i], skip)
				}
			})
		}
		t.Run("channel-stall", func(t *testing.T) {
			t.Parallel()
			stall := &spanStall{from: 500, until: 2_500}
			r := drainFgSTP(t, variants[1], traces[0], stall, false)
			if stall.refused == 0 {
				t.Fatal("the injected stall refused no grant: the fault path was not exercised")
			}
			docs[len(variants)] = [][]byte{encode(t, r)}
		})
	})
	if t.Failed() {
		return
	}
	h := sha256.New()
	for _, cell := range docs {
		if len(cell) == 0 {
			t.Skip("a -run filter left cells out; the digest covers all of them")
		}
		for _, b := range cell {
			h.Write(b)
			h.Write([]byte{'\n'})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != configSpaceDigest {
		t.Errorf("configuration-space digest %s, want %s", got, configSpaceDigest)
	}
}
