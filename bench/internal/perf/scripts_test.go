package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestScriptsAreDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(SimScript(7), SimScript(7)) || !reflect.DeepEqual(SweepScript(7), SweepScript(7)) {
		t.Fatal("the same seed gave different scripts")
	}
	if reflect.DeepEqual(SimScript(7), SimScript(8)) || reflect.DeepEqual(SweepScript(7), SweepScript(8)) {
		t.Fatal("different seeds gave the same script")
	}
}

func TestSimScriptRequestsEveryKeyTwice(t *testing.T) {
	script := SimScript(3)
	keys := make([]string, len(script))
	count := map[string]int{}
	for i, k := range script {
		keys[i] = k.Request().Key()
		count[keys[i]]++
	}
	if len(count) != 232 {
		t.Fatalf("%d distinct keys, want 232", len(count))
	}
	for k, n := range count {
		if n != 2 {
			t.Fatalf("%s requested %d times, want 2", k, n)
		}
	}
	misses := 0
	for _, first := range FirstSeen(keys) {
		if first {
			misses++
		}
	}
	if misses != 232 {
		t.Fatalf("%d expected misses, want 232", misses)
	}
}

func TestSweepScriptShape(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		script := SweepScript(seed)
		seen := map[Unit]bool{}
		for _, q := range script {
			if len(q.Experiments) != 2 || q.Experiments[0] == q.Experiments[1] {
				t.Fatalf("seed %d: request %v does not name two distinct experiments", seed, q.Experiments)
			}
			for _, u := range q.Units() {
				seen[u] = true
			}
		}
		if len(seen) != len(SweepUnits()) {
			t.Fatalf("seed %d covers %d of %d units, so its miss count differs", seed, len(seen), len(SweepUnits()))
		}
	}
}

func TestClientDocumentKeySpacesAreDisjoint(t *testing.T) {
	sim := map[string]bool{}
	for _, k := range SimKeys() {
		sim[k.Request().Key()] = true
	}
	for _, u := range SweepUnits() {
		if sim[u.Request().Key()] {
			t.Fatalf("sweep unit %s is also a sim document", u.Request().Key())
		}
	}
}

func TestGoldenCoversExactlyTheWorkloadOutputs(t *testing.T) {
	g, err := LoadGolden(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	reqs := AllRequests()
	for _, r := range reqs {
		if _, ok := g[r.Key()]; !ok {
			t.Errorf("no golden digest for %s", r.Key())
		}
	}
	if len(g) != len(reqs) {
		t.Errorf("%d golden digests for %d requests", len(g), len(reqs))
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the
// benchmark produces.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, Workloads)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit, Better string }
		defs   []Def
	}{{b.EndToEnd, EndToEnd}, {b.PerLayer, PerLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if l := c.listed[i]; l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("BENCHMARK.json metric %d is %+v, the benchmark reports %+v", i, l, d)
			}
		}
	}
}
