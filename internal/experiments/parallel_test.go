package experiments

import "testing"

// determinismInsts is deliberately small: each checked experiment runs
// twice (serial and 8-way parallel), and the suite also runs under
// -race.
const determinismInsts = 2_000

// TestJobsDeterminism checks the harness determinism guarantee: an
// experiment's rendered output is byte-identical whether Evaluate's
// cell pool runs on one worker or eight, because the experiment reads
// its cells from the memo in its own order. E2 covers the full
// workload × mode grid, E4 the shared single-core baseline under
// concurrent variants, E5 the sweep path.
func TestJobsDeterminism(t *testing.T) {
	for _, id := range []string{"E2", "E4", "E5"} {
		serial, err := evaluate(NewSession(determinismInsts, 1), id)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		parallel, err := evaluate(NewSession(determinismInsts, 8), id)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if s, p := serial.String(), parallel.String(); s != p {
			t.Errorf("%s: -jobs 1 and -jobs 8 outputs differ:\n--- serial ---\n%s\n--- parallel ---\n%s", id, s, p)
		}
	}
}

// TestSessionCachesShared checks that one session reuses traces and
// cells across experiments rendered with nothing planned: after E2 ran
// the medium grid, E4 on the same session must not re-capture any
// trace, and of its 6W cells only the 4W mutated-fabric Fg-STP cells
// are new to the memo.
func TestSessionCachesShared(t *testing.T) {
	s := NewSession(determinismInsts, 0)
	if _, err := s.r.run("E2"); err != nil {
		t.Fatal(err)
	}
	captured := s.r.traces.Len()
	if captured == 0 {
		t.Fatal("E2 captured no traces")
	}
	cells := s.r.memo.Len()
	if want := 3 * captured; cells != want {
		t.Fatalf("E2 memoised %d cells, want %d", cells, want)
	}
	if _, err := s.r.run("E4"); err != nil {
		t.Fatal(err)
	}
	if got := s.r.traces.Len(); got != captured {
		t.Errorf("E4 grew the trace cache %d -> %d; want reuse", captured, got)
	}
	if got, want := s.r.memo.Len()-cells, 4*captured; got != want {
		t.Errorf("E4 added %d cells to the memo, want %d", got, want)
	}
}
