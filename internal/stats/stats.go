// Package stats provides the measurement plumbing shared by the timing
// models and the experiment harness: per-run summaries, derived
// metrics, geometric means and plain-text table rendering for the
// figure/table regeneration tools.
package stats

import (
	"fmt"
	"math"
	"sort"
	"unicode/utf8"
)

// Run is the summary of one simulation: a workload executed on a
// machine mode. Cycles and Insts define performance; Metrics carries
// model-specific counters (misses, squashes, communication traffic…)
// keyed by short snake_case names.
type Run struct {
	Workload string
	Mode     string
	Cycles   uint64
	// Insts is the number of committed program instructions. Replicas
	// created by Fg-STP do not count: IPC stays comparable across
	// modes.
	Insts uint64
	// Metrics holds the run's named counters — the single sink every
	// timing model summarises into. Nil on a zero Run; Set allocates it.
	// Every renderer walks it in Names order, and encoding/json sorts
	// map keys too, so exports do not depend on insertion order.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// IPC returns committed instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Set records a model counter, allocating the map on first use.
func (r *Run) Set(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[key] = v
}

// Get returns a model counter (zero when absent).
func (r *Run) Get(key string) float64 { return r.Metrics[key] }

// Names returns the keys of a counter map in name order — the order
// every text and machine-readable export lists counters in.
func Names(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Speedup returns how much faster other is than base on the same
// workload: base.Cycles / other.Cycles.
func Speedup(base, other *Run) float64 {
	if other.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(other.Cycles)
}

// Geomean returns the geometric mean of vals, ignoring non-positive
// entries (which would otherwise poison the log). It returns 0 for an
// empty or all-invalid input. Callers that aggregate measurement cells
// should prefer GeomeanN and surface the exclusion count — a zero here
// is the failure sentinel of Speedup and Run.IPC, and dropping it
// without a trace can make a failed cell look merely "ignored".
func Geomean(vals []float64) float64 {
	gm, _ := GeomeanN(vals)
	return gm
}

// GeomeanN returns the geometric mean of the positive entries of vals
// together with how many entries were excluded as non-positive, so
// aggregations can report shrunken inputs instead of silently dropping
// them. It returns (0, len(vals)) for an empty or all-invalid input.
func GeomeanN(vals []float64) (gm float64, excluded int) {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	excluded = len(vals) - n
	if n == 0 {
		return 0, excluded
	}
	return math.Exp(sum / float64(n)), excluded
}

// Table accumulates rows and renders an aligned plain-text table — the
// output format of every regenerated figure and table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		cells = cells[:len(t.headers)]
	}
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted cells: each argument is rendered
// with %v for strings and %.3f for floats.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		case float32:
			row = append(row, fmt.Sprintf("%.3f", v))
		default:
			row = append(row, fmt.Sprintf("%v", c))
		}
	}
	t.AddRow(row...)
}

// Headers returns the column headers.
func (t *Table) Headers() []string {
	out := make([]string, len(t.headers))
	copy(out, t.headers)
	return out
}

// Rows returns the accumulated rows, each padded to the header count
// (missing cells render empty) — the machine-readable view the JSON
// and CSV exporters serialise.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for r, row := range t.rows {
		cells := make([]string, len(t.headers))
		copy(cells, row)
		out[r] = cells
	}
	return out
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = cellWidth(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if w := cellWidth(c); w > widths[i] {
				widths[i] = w
			}
		}
	}
	out := ""
	if t.Title != "" {
		out += t.Title + "\n"
	}
	line := ""
	for i, h := range t.headers {
		line += pad(h, widths[i])
		if i < len(t.headers)-1 {
			line += "  "
		}
	}
	out += line + "\n"
	rule := ""
	for i := range t.headers {
		for k := 0; k < widths[i]; k++ {
			rule += "-"
		}
		if i < len(t.headers)-1 {
			rule += "  "
		}
	}
	out += rule + "\n"
	for _, row := range t.rows {
		line = ""
		for i := range t.headers {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			line += pad(c, widths[i])
			if i < len(t.headers)-1 {
				line += "  "
			}
		}
		out += line + "\n"
	}
	return out
}

// cellWidth measures a cell in runes, not bytes, so non-ASCII cells
// (µops, benchmark names with accents) keep the columns aligned.
func cellWidth(s string) int { return utf8.RuneCountInString(s) }

func pad(s string, w int) string {
	for n := cellWidth(s); n < w; n++ {
		s += " "
	}
	return s
}
