package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/bench/internal/perf"
)

// A set is a directory of saved runs: each <workload>.<seed>.out file
// holds one run's stdout. Other files are ignored.
type set struct {
	values            map[string]map[string][]float64 // workload → metric → one value per run
	attempted, failed map[string]int
}

func loadSet(dir string) (set, error) {
	s := set{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	files, err := os.ReadDir(dir)
	if err != nil {
		return s, err
	}
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".out") {
			continue
		}
		w, _, _ := strings.Cut(f.Name(), ".")
		if !validWorkload(w) {
			return s, fmt.Errorf("%s: file name does not start with a workload", filepath.Join(dir, f.Name()))
		}
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return s, err
		}
		res, err := perf.ReadResult(data)
		if err != nil {
			return s, fmt.Errorf("%s: %w", filepath.Join(dir, f.Name()), err)
		}
		if s.values[w] == nil {
			s.values[w] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			s.values[w][name] = append(s.values[w][name], m.Value)
		}
		s.attempted[w] += res.Attempted
		s.failed[w] += res.Failed
	}
	return s, nil
}

// loadBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// summary is a metric's median and quartiles over a set's runs.
type summary struct{ med, q1, q3 float64 }

func summarize(xs []float64) summary {
	s := summary{med: perf.Median(xs)}
	if q1, q3, err := perf.Quartiles(xs); err == nil {
		s.q1, s.q3 = q1, q3
	} else {
		s.q1, s.q3 = s.med, s.med
	}
	return s
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

// verdict judges B against A for one metric. Deterministic metrics must
// repeat exactly; bounded ones may worsen by at most their bound, and
// are unresolved when either set spreads wider than the bound; the rest
// are reported without a verdict.
func verdict(d perf.Def, bound float64, bounded bool, a, b []float64, sa, sb summary) string {
	switch {
	case d.Deterministic:
		for _, x := range append(append([]float64(nil), a...), b...) {
			if x != a[0] {
				return "DIFFERS"
			}
		}
		return "same"
	case !bounded:
		return "-"
	}
	worse := (sb.med - sa.med) / sa.med
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "WORSE"
	case sa.spread() > bound || sb.spread() > bound:
		return "unresolved"
	default:
		return "ok"
	}
}

// compareCmd prints, per workload and metric, each set's median and
// quartiles and the verdict, and exits 1 when any verdict fails.
func compareCmd(root string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fgstpperf compare <setA> <setB>")
		return 2
	}
	bounds, err := loadBounds(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgstpperf:", err)
		return 2
	}
	var sets [2]set
	for i := range sets {
		if sets[i], err = loadSet(args[i]); err != nil {
			fmt.Fprintln(os.Stderr, "fgstpperf:", err)
			return 2
		}
	}
	bad := false
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB/A\tverdict")
	for _, w := range perf.Workloads {
		a, b := sets[0].values[w], sets[1].values[w]
		if a == nil || b == nil {
			continue
		}
		for i, s := range sets {
			if s.failed[w] > 0 {
				fmt.Fprintf(tw, "%s\truns\t\t\t\t\tset %c: %d of %d ops FAILED\n", w, 'A'+i, s.failed[w], s.attempted[w])
				bad = true
			}
		}
		for _, name := range sortedKeys(a) {
			if b[name] == nil {
				continue
			}
			d, ok := perf.DefByName(name)
			if !ok {
				d = perf.Def{Name: name}
			}
			bound, bounded := bounds[name]
			sa, sb := summarize(a[name]), summarize(b[name])
			v := verdict(d, bound, bounded, a[name], b[name], sa, sb)
			bad = bad || v == "WORSE" || v == "DIFFERS"
			ratio := "-"
			if sa.med != 0 {
				ratio = fmt.Sprintf("%.4f", sb.med/sa.med)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\t%s\n",
				w, name, d.Unit, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, ratio, v)
		}
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
