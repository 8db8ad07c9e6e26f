package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

// exportInsts keeps export tests fast while still exercising real
// simulations (same budget class as the determinism tests).
const exportInsts = 2_000

// evaluate renders experiment id on s through Session.Evaluate, the
// path fgstpbench and fgstpd take: plan, execute, render.
func evaluate(s *Session, id string) (*Result, error) {
	ev, err := s.Evaluate(context.Background(), []string{id})
	if err != nil {
		return nil, err
	}
	return ev.Results[0], nil
}

// plannedCells lists the cells Evaluate plans for experiment id at
// budget insts, in the order the experiment first asks for them.
func plannedCells(id string, insts uint64) ([]Cell, error) {
	return planner(insts, "").cellsOf([]string{id})
}

func runExport(t *testing.T, id string, jobs int) []*Result {
	t.Helper()
	res, err := evaluate(NewSession(exportInsts, jobs), id)
	if err != nil {
		t.Fatal(err)
	}
	return []*Result{res}
}

// The JSON export is byte-identical across worker counts: fan-out must
// never leak into the machine-readable output.
func TestWriteJSONDeterministicAcrossJobs(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteJSON(&a, exportInsts, runExport(t, "E2", 1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, exportInsts, runExport(t, "E2", 4)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("JSON export differs between -jobs 1 and -jobs 4:\n%s\nvs\n%s",
			a.String(), b.String())
	}
}

// The JSON export parses back and carries the schema, the experiment
// and its tables.
func TestWriteJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, exportInsts, runExport(t, "E1", 1)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema      string `json:"schema"`
		Insts       uint64 `json:"insts"`
		Experiments []struct {
			ID     string `json:"id"`
			Tables []struct {
				Headers []string   `json:"headers"`
				Rows    [][]string `json:"rows"`
			} `json:"tables"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Schema != SchemaVersion {
		t.Errorf("schema = %q, want %q", doc.Schema, SchemaVersion)
	}
	if doc.Insts != exportInsts {
		t.Errorf("insts = %d, want %d", doc.Insts, exportInsts)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "E1" {
		t.Fatalf("experiments = %+v", doc.Experiments)
	}
	tables := doc.Experiments[0].Tables
	if len(tables) == 0 {
		t.Fatal("no tables exported")
	}
	for i, tb := range tables {
		if len(tb.Headers) == 0 {
			t.Errorf("table %d: no headers", i)
		}
		for j, row := range tb.Rows {
			if len(row) != len(tb.Headers) {
				t.Errorf("table %d row %d: %d cells for %d headers", i, j, len(row), len(tb.Headers))
			}
		}
	}
}

// The CSV export parses back with the schema preamble and consistent
// per-kind record shapes.
func TestWriteCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, exportInsts, runExport(t, "E1", 1)); err != nil {
		t.Fatal(err)
	}
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		t.Fatalf("export is not valid CSV: %v", err)
	}
	if len(recs) < 2 {
		t.Fatalf("only %d records", len(recs))
	}
	if recs[0][0] != "schema" || recs[0][1] != SchemaVersion {
		t.Errorf("preamble = %v", recs[0])
	}
	var rows int
	for _, rec := range recs[1:] {
		if rec[0] != "E1" {
			t.Errorf("record id = %q", rec[0])
		}
		if rec[1] == "table" && rec[3] == "row" {
			rows++
		}
	}
	if rows == 0 {
		t.Error("no table rows exported")
	}
}

func TestWriteFormatUnknown(t *testing.T) {
	err := WriteFormat(&bytes.Buffer{}, "yaml", 1, nil)
	if err == nil || !strings.Contains(err.Error(), "yaml") {
		t.Errorf("want unknown-format error naming the format, got %v", err)
	}
}
