package core

import (
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// pruneWakeTrace returns a trace whose only cross-core dataflow is one
// remote read of a long-committed value, and that read's gseq. Gseq 0
// writes R5 on core 0 (round-robin steering puts gseq g on core g&1).
// A loop of source-less lis then runs the commit pointer past the
// first prune, which drops R5's producer record, and on toward the
// second, at 2 × prunePeriod commits. The read sits in a subroutine
// called once at the start (the read lands on an even gseq, local, and
// the code is warm later) and once after the loop. There a divide on
// architectural operands, just short of the boundary, parks the commit
// pointer for its 20 cycles while the read, just past the boundary, is
// dispatched and polled; its delivery is due 40 cycles later, and the
// commit pointer crosses the boundary, triggering the prune, in
// between.
func pruneWakeTrace() (*trace.Trace, uint64) {
	b := program.NewBuilder("prunewake")
	b.Li(isa.R5, 42)
	b.Call("tail")
	b.Li(isa.R1, 1013)
	b.Label("loop")
	for i := 0; i < 13; i++ {
		b.Li(isa.Reg(int(isa.R7)+i%8), int64(i))
	}
	b.Addi(isa.R1, isa.R1, -1) // same parity as the branch: local
	b.Li(isa.R15, 0)
	b.Bne(isa.R1, isa.R0, "loop")
	b.Li(isa.R15, 1) // puts the second read on an odd gseq
	b.Call("tail")
	b.Halt()
	b.Label("tail")
	for i := 0; i < 45; i++ {
		b.Li(isa.Reg(int(isa.R7)+i%8), int64(i))
	}
	b.Div(isa.R20, isa.R21, isa.R22)
	for i := 0; i < 30; i++ {
		b.Li(isa.Reg(int(isa.R7)+i%8), int64(i))
	}
	b.Add(isa.R6, isa.R5, isa.R5)
	for i := 0; i < 32; i++ {
		b.Li(isa.R7, int64(i))
	}
	b.Ret()
	tr := trace.Capture(b.MustBuild(), 0)
	var read uint64
	for i := 0; i < tr.Len(); i++ {
		if tr.At(i).Dst == isa.R6 {
			read = uint64(i)
		}
	}
	return tr, read
}

// pruneWakeConfig steers round-robin with replication off, so the read
// of R5 is remote, over a slow channel, so its delivery is still far
// off when the prune that forgets it runs.
func pruneWakeConfig() config.Machine {
	cfg := config.Small()
	cfg.FgSTP.Steering = "roundrobin"
	cfg.FgSTP.Replication = false
	cfg.FgSTP.CommLatency = 40
	return cfg
}

// A consumer asleep on a memoised delivery that Machine.prune deletes
// must re-poll at the very next cycle, as a consumer polling every
// cycle would: the re-poll misses the memo and is granted a fresh
// transfer. The first prune drops R5's producer record, so the
// consumer's poll is granted from its own cycle; the second prune then
// drops that grant while the consumer sleeps on it.
func TestPruneWakesForgottenDelivery(t *testing.T) {
	tr, read := pruneWakeTrace()
	if read%2 != 1 || read < 2*prunePeriod {
		t.Fatalf("the read of R5 is gseq %d, want an odd gseq past %d", read, 2*prunePeriod)
	}
	cfg := pruneWakeConfig()
	m := mustMachine(t, cfg, tr)
	lat := int64(cfg.FgSTP.CommLatency)
	reached := false
	for now := int64(0); !m.Done() && now < 200_000; now++ {
		before, memo := m.deliver[1].Get(0)
		m.Cycle(now)
		if _, still := m.deliver[1].Get(0); !memo || still {
			continue
		}
		// The prune at the end of this cycle forgot the delivery.
		if _, issued := m.completeAt.Get(read); issued {
			t.Fatalf("cycle %d: the consumer issued before the prune forgot its delivery", now)
		}
		if before <= now+1 {
			t.Fatalf("cycle %d: forgotten delivery at %d was already due; the consumer was not asleep on it", now, before)
		}
		m.Cycle(now + 1)
		again, ok := m.deliver[1].Get(0)
		if !ok {
			t.Fatalf("cycle %d: the consumer did not re-poll the cycle after the prune (it slept toward %d)", now+1, before)
		}
		if again < now+1+lat {
			t.Fatalf("cycle %d: re-granted delivery at %d, want at least %d", now+1, again, now+1+lat)
		}
		reached = true
		break
	}
	if !reached {
		t.Fatal("no prune forgot a delivery a consumer slept on; the trace misses the boundary")
	}

	// The whole run through the prune wake is exact under skipping.
	ms, mt := mustMachine(t, cfg, tr), mustMachine(t, cfg, tr)
	cs := mustDrainM(t, ms)
	ct, err := mt.DrainTicked()
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := json.Marshal(ms.Summarize(cs))
	tb, _ := json.Marshal(mt.Summarize(ct))
	if string(sb) != string(tb) {
		t.Errorf("skip and tick summaries diverge\n skip: %s\n tick: %s", sb, tb)
	}
}
