package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Def declares one metric as BENCHMARK.json lists it. Deterministic
// metrics depend only on the simulator's outputs, so two runs of one
// commit must report them identically.
type Def struct {
	Name, Unit, Better string
	Deterministic      bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// EndToEnd are the metrics of the timed run (--trace 0): what a user of
// the simulator waits on and pays for, on every workload.
var EndToEnd = []Def{
	{Name: "setup_s", Unit: "s", Better: lower},
	{Name: "wall_s", Unit: "s", Better: lower},
	{Name: "cpu_s", Unit: "s", Better: lower},
	{Name: "peak_rss_mib", Unit: "MiB", Better: lower},
}

// Modes are the simulator's execution modes, as the cmp.* per-layer
// metrics name them.
var Modes = []string{"single", "corefusion", "fgstp"}

// PerLayer are the metrics of the traced run (--trace 1). A layer that
// does not run in a workload, or that the workload only reaches through
// fgstpd as a black box, reports 0 there.
var PerLayer = func() []Def {
	d := []Def{
		{Name: "workloads.trace_s", Unit: "s", Better: lower},
		{Name: "workloads.ns_per_inst", Unit: "ns", Better: lower},
		{Name: "workloads.bytes_per_inst", Unit: "B", Better: lower},
		{Name: "cmp.cells", Unit: "count", Better: lower, Deterministic: true},
	}
	for _, m := range Modes {
		d = append(d,
			Def{Name: "cmp." + m + ".busy_s", Unit: "s", Better: lower},
			Def{Name: "cmp." + m + ".ns_per_inst", Unit: "ns", Better: lower},
			Def{Name: "cmp." + m + ".ns_per_cycle", Unit: "ns", Better: lower},
			Def{Name: "cmp." + m + ".allocs_per_kinst", Unit: "allocs/kinst", Better: lower})
	}
	return append(d,
		Def{Name: "hotblock.replayed_cycle_frac", Unit: "ratio", Better: higher, Deterministic: true},
		Def{Name: "hotblock.precond_pass_frac", Unit: "ratio", Better: higher, Deterministic: true},
		Def{Name: "hotblock.capture_abort_frac", Unit: "ratio", Better: lower, Deterministic: true},
		Def{Name: "experiments.self_s", Unit: "s", Better: lower},
		Def{Name: "experiments.cells_simulated", Unit: "count", Better: lower, Deterministic: true},
		Def{Name: "sched.worker_util", Unit: "ratio", Better: higher},
		Def{Name: "simpoint.choose_s", Unit: "s", Better: lower},
		Def{Name: "simpoint.estimate_s", Unit: "s", Better: lower},
		Def{Name: "simpoint.sampled_frac", Unit: "ratio", Better: lower, Deterministic: true},
		Def{Name: "simpoint.ipc_err_pct", Unit: "%", Better: lower, Deterministic: true},
		Def{Name: "simpoint.ci_miss_frac", Unit: "ratio", Better: lower, Deterministic: true},
		Def{Name: "checkpoint.capture_s", Unit: "s", Better: lower},
		Def{Name: "checkpoint.ns_per_inst", Unit: "ns", Better: lower},
		Def{Name: "export.render_s", Unit: "s", Better: lower},
		Def{Name: "export.bytes", Unit: "B", Better: lower, Deterministic: true},
		Def{Name: "server.hit_key_ms", Unit: "ms", Better: lower},
		Def{Name: "server.doc_hit_frac", Unit: "ratio", Better: higher, Deterministic: true},
		Def{Name: "server.cell_hit_frac", Unit: "ratio", Better: higher},
		Def{Name: "server.queue_depth_peak", Unit: "count", Better: lower},
		Def{Name: "server.sim_hits", Unit: "count", Better: higher, Deterministic: true},
		Def{Name: "server.sim_misses", Unit: "count", Better: lower, Deterministic: true},
		Def{Name: "server.unit_hits", Unit: "count", Better: higher, Deterministic: true},
		Def{Name: "server.unit_misses", Unit: "count", Better: lower, Deterministic: true},
		Def{Name: "server.sim_hit_p50_ms", Unit: "ms", Better: lower},
		Def{Name: "server.sim_miss_p50_ms", Unit: "ms", Better: lower},
		Def{Name: "server.sim_p90_ms", Unit: "ms", Better: lower},
		Def{Name: "server.sweep_unit_p50_ms", Unit: "ms", Better: lower},
		Def{Name: "server.sweep_unit_p90_ms", Unit: "ms", Better: lower},
		Def{Name: "trace.wall_s", Unit: "s", Better: lower},
		Def{Name: "trace.untraced_wall_s", Unit: "s", Better: lower},
		Def{Name: "trace.overhead_s", Unit: "s", Better: lower},
	)
}()

// DefByName finds a metric among the end-to-end and per-layer ones.
func DefByName(name string) (Def, bool) {
	for _, defs := range [][]Def{EndToEnd, PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Def{}, false
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// NewResult builds a run's result from exactly the metrics in defs.
func NewResult(defs []Def, values map[string]float64, attempted, failed int) (Result, error) {
	r := Result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]Metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return r, fmt.Errorf("%d metrics measured, %d declared", len(values), len(defs))
	}
	return r, nil
}

// Write prints the result as one JSON line.
func (r Result) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(r)
}

// ReadResult parses the last line of a run's stdout.
func ReadResult(out []byte) (Result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r Result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}
