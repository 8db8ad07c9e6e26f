package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/stats"
)

// SchemaVersion identifies the machine-readable export format; bump it
// on any incompatible change to the JSON or CSV shape.
const SchemaVersion = "fgstp.bench/1"

// exportTable is the serialised form of a stats.Table: the rendered
// cell strings, so JSON and text output always agree on formatting.
type exportTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// exportExperiment is the serialised form of one Result.
type exportExperiment struct {
	ID       string             `json:"id"`
	Title    string             `json:"title"`
	Notes    []string           `json:"notes,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Tables   []exportTable      `json:"tables"`
}

// exportDoc is the top-level export document.
type exportDoc struct {
	Schema      string             `json:"schema"`
	Insts       uint64             `json:"insts"`
	Experiments []exportExperiment `json:"experiments"`
}

func buildDoc(insts uint64, results []*Result) exportDoc {
	doc := exportDoc{Schema: SchemaVersion, Insts: insts}
	for _, res := range results {
		e := exportExperiment{
			ID:       res.ID,
			Title:    res.Title,
			Notes:    res.Notes,
			Failures: res.Failures,
			Metrics:  res.Metrics,
			Tables:   make([]exportTable, 0, len(res.Tables)),
		}
		for _, t := range res.Tables {
			e.Tables = append(e.Tables, exportTable{
				Title:   t.Title,
				Headers: t.Headers(),
				Rows:    t.Rows(),
			})
		}
		doc.Experiments = append(doc.Experiments, e)
	}
	return doc
}

// WriteJSON writes the results as one indented JSON document. The
// output is deterministic — experiments in run order, table rows in
// table order, metric keys sorted by encoding/json — so exports are
// byte-identical across worker counts and diffable across runs.
func WriteJSON(w io.Writer, insts uint64, results []*Result) error {
	b, err := json.MarshalIndent(buildDoc(insts, results), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV writes the results as flat CSV records, one logical stream
// per document. Record shapes:
//
//	schema,<version>,insts,<n>
//	<id>,note,<text>
//	<id>,failure,<text>
//	<id>,metric,<name>,<value>
//	<id>,table,<title>,header,<cells...>
//	<id>,table,<title>,row,<cells...>
//
// Like WriteJSON the output is deterministic: metric keys are sorted,
// everything else keeps run order.
func WriteCSV(w io.Writer, insts uint64, results []*Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"schema", SchemaVersion, "insts", strconv.FormatUint(insts, 10)}); err != nil {
		return err
	}
	for _, res := range results {
		for _, n := range res.Notes {
			if err := cw.Write([]string{res.ID, "note", n}); err != nil {
				return err
			}
		}
		for _, f := range res.Failures {
			if err := cw.Write([]string{res.ID, "failure", f}); err != nil {
				return err
			}
		}
		for _, k := range stats.Names(res.Metrics) {
			rec := []string{res.ID, "metric", k, strconv.FormatFloat(res.Metrics[k], 'g', -1, 64)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		for _, t := range res.Tables {
			if err := cw.Write(append([]string{res.ID, "table", t.Title, "header"}, t.Headers()...)); err != nil {
				return err
			}
			for _, row := range t.Rows() {
				if err := cw.Write(append([]string{res.ID, "table", t.Title, "row"}, row...)); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Formats lists the renderers the CLIs accept for -format.
func Formats() []string { return []string{"text", "json", "csv"} }

// WriteFormat renders results in the named format ("text", "json" or
// "csv") to w.
func WriteFormat(w io.Writer, format string, insts uint64, results []*Result) error {
	switch format {
	case "text":
		for _, res := range results {
			if _, err := fmt.Fprintln(w, res.String()); err != nil {
				return err
			}
		}
		return nil
	case "json":
		return WriteJSON(w, insts, results)
	case "csv":
		return WriteCSV(w, insts, results)
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", format)
	}
}
