package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/server"
)

// The sweep client consumes the fgstpd.sweep/1 NDJSON stream: a header
// record, one record per completed unit as it lands, a terminal summary
// record, each decoded with the server's own record types.

func sweepCmd(args []string) int {
	fs := flag.NewFlagSet("fgstpd sweep", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8321", "daemon base URL")
		tenantName  = fs.String("tenant", "", "tenant identity for admission control")
		experiments = fs.String("experiments", "", "comma-separated experiment ids, \"all\" and/or \"all+ext\"")
		insts       = fs.String("insts", "", "comma-separated instruction budgets")
		format      = fs.String("format", "", "output format: text, json or csv")
		jobs        = fs.Int("jobs", 0, "per-unit simulation fan-out (0: server default)")
		timeout     = fs.Duration("timeout", 0, "per-unit deadline override")
		dir         = fs.String("dir", "", "write unit documents to <dir>/<experiment>-<insts>.<ext>")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	req := server.SweepRequest{Format: *format, Jobs: *jobs, TimeoutMillis: timeout.Milliseconds()}
	if *experiments != "" {
		req.Experiments = splitList(*experiments)
	}
	for _, f := range splitList(*insts) {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fgstpd: bad -insts entry %q: %v\n", f, err)
			return 2
		}
		req.Insts = append(req.Insts, n)
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "fgstpd:", err)
			return 2
		}
	}

	resp, err := postJSON(*addr+"/v1/sweep", *tenantName, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgstpd:", err)
		return 2
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		es := bufio.NewScanner(resp.Body)
		for es.Scan() {
			fmt.Fprintln(os.Stderr, es.Text())
		}
		fmt.Fprintf(os.Stderr, "fgstpd: server returned %s\n", resp.Status)
		return 2
	}

	// Unit documents can be whole JSON exports, so lines run far past
	// the default scanner budget.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	sawSummary := false
	exit := 0
	ext := "json"
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// The records share field names (the header's list-valued insts
		// against a unit's scalar), so probe the kind before the decode.
		var probe struct {
			Schema string `json:"schema"`
			Unit   *int   `json:"unit"`
			Done   bool   `json:"done"`
		}
		if !decodeRecord(line, &probe) {
			return 2
		}
		switch {
		case probe.Schema != "":
			var hdr server.SweepHeader
			if !decodeRecord(line, &hdr) {
				return 2
			}
			if hdr.Schema != server.SweepSchemaVersion {
				fmt.Fprintf(os.Stderr, "fgstpd: unknown stream schema %q\n", hdr.Schema)
				return 2
			}
			ext = formatExt(hdr.Format)
			fmt.Fprintf(os.Stderr, "fgstpd: sweep of %d units (%s × %s)\n",
				hdr.Units, strings.Join(hdr.Experiments, ","), joinUints(hdr.Insts))
		case probe.Unit != nil:
			var rec server.SweepUnitRecord
			if !decodeRecord(line, &rec) {
				return 2
			}
			if err := renderUnit(&rec, *dir, ext); err != nil {
				fmt.Fprintln(os.Stderr, "fgstpd:", err)
				return 2
			}
		case probe.Done:
			var sum server.SweepSummary
			if !decodeRecord(line, &sum) {
				return 2
			}
			sawSummary = true
			fmt.Fprintf(os.Stderr,
				"fgstpd: sweep done: %d units, %d ok, %d degraded, %d failed; cells run=%d hit=%d miss=%d\n",
				sum.Units, sum.OK, sum.Degraded, sum.Failed,
				sum.Cells.Runs, sum.Cells.Hits, sum.Cells.Misses)
			exit = sum.Exit
		default:
			fmt.Fprintf(os.Stderr, "fgstpd: unrecognised stream record: %s\n", line)
			return 2
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "fgstpd:", err)
		return 2
	}
	if !sawSummary {
		fmt.Fprintln(os.Stderr, "fgstpd: stream ended without a summary record")
		return 2
	}
	return exit
}

// decodeRecord decodes one stream line into v, reporting a bad record
// on stderr.
func decodeRecord(line []byte, v any) bool {
	if err := json.Unmarshal(line, v); err != nil {
		fmt.Fprintf(os.Stderr, "fgstpd: bad stream record: %v\n", err)
		return false
	}
	return true
}

// renderUnit reports one landed unit on stderr and delivers its
// document: to <dir>/<experiment>-<insts>.<ext> with -dir, to stdout
// otherwise (units print in completion order; use -dir when documents
// must be kept apart).
func renderUnit(rec *server.SweepUnitRecord, dir, ext string) error {
	if rec.Status != http.StatusOK {
		kind, msg := "error", "no detail"
		if rec.Error != nil {
			kind, msg = rec.Error.Kind, rec.Error.Message
		}
		fmt.Fprintf(os.Stderr, "fgstpd: unit %d %s@%d FAILED %d (%s): %s\n",
			rec.Unit, rec.Experiment, rec.Insts, rec.Status, kind, msg)
		return nil
	}
	state := rec.Cache
	if state == "" {
		state = "uncached"
	}
	fmt.Fprintf(os.Stderr, "fgstpd: unit %d %s@%d exit %d cache %s cells run=%d hit=%d miss=%d\n",
		rec.Unit, rec.Experiment, rec.Insts, rec.Exit, state,
		rec.Cells.Runs, rec.Cells.Hits, rec.Cells.Misses)
	if dir == "" {
		_, err := os.Stdout.WriteString(rec.Document)
		return err
	}
	name := fmt.Sprintf("%s-%d.%s", rec.Experiment, rec.Insts, ext)
	return os.WriteFile(filepath.Join(dir, name), []byte(rec.Document), 0o644)
}

// formatExt maps the sweep's format (from the header record) to a file
// extension for -dir output.
func formatExt(format string) string {
	switch format {
	case "json", "csv":
		return format
	default:
		return "txt"
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func joinUints(ns []uint64) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.FormatUint(n, 10)
	}
	return strings.Join(parts, ",")
}
