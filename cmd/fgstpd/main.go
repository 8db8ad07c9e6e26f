// Command fgstpd serves the simulation engine as a fault-isolated
// HTTP/JSON daemon, and doubles as its own client. A fleet of tenants
// submits (machine config, workload, experiment) jobs; the daemon runs
// them on the scheduler with the full robustness contract of
// internal/server: per-request panic/livelock containment, per-job
// deadlines, bounded per-tenant queues with fair dequeue, a
// content-addressed result cache, and graceful drain on SIGTERM.
// Responses are byte-identical to fgstpbench/fgstpsim stdout for the
// same job.
//
// Usage:
//
//	fgstpd [serve] [flags]     start the daemon (the default command)
//	fgstpd submit [flags]      submit one job, stream the result to stdout
//	fgstpd sweep [flags]       submit an experiments × insts matrix and
//	                           render the result stream as units land
//	fgstpd health [flags]      probe /healthz and /readyz
//
// Serve flags:
//
//	-addr host:port   listen address (default 127.0.0.1:8321; port 0
//	                  picks a free port — see -portfile)
//	-cache dir        content-addressed result cache directory
//	                  (default none: caching disabled)
//	-workers n        job-executing workers (default GOMAXPROCS)
//	-queue n          per-tenant queue bound (default 8)
//	-shed n           global load-shed watermark (default 4*queue)
//	-timeout d        default and maximum per-job deadline (default 2m)
//	-chaos            accept fault-injection jobs (inject fields)
//	-portfile file    write the bound base URL (http://host:port) here
//	                  once listening — lets scripts find a port-0 daemon
//
// Submit flags:
//
//	-addr url         daemon base URL (default http://127.0.0.1:8321)
//	-kind name        job kind: bench (default) or sim
//	-tenant name      tenant identity for admission control
//	-experiment id    bench: E1..E10, E11/E12 or "all" (default all)
//	-workload name    sim: workload (default mcf)
//	-machine name     sim: machine preset (default medium)
//	-mode name        sim: single | corefusion | fgstp | all
//	-insts n          instruction budget (default 100000)
//	-format name      text | json | csv (default json)
//	-inject s         fault injection (bench: workload to poison;
//	                  sim: livelock or panic) — needs a -chaos server
//	-timeout d        per-job deadline override (never extends the
//	                  server maximum)
//
// Submit exit codes mirror the CLI taxonomy: 0 — clean result, 1 — the
// job completed with FAIL cells (the server's X-Fgstpd-Exit header),
// 2 — the request failed (connection error or a structured error
// response, printed to stderr).
//
// Sweep flags:
//
//	-addr url          daemon base URL (default http://127.0.0.1:8321)
//	-tenant name       tenant identity for admission control
//	-experiments list  comma-separated ids, "all" and/or "all+ext"
//	                   (default all)
//	-insts list        comma-separated instruction budgets
//	                   (default 100000)
//	-format name       text | json | csv (default json)
//	-jobs n            per-unit simulation fan-out (0: server default)
//	-timeout d         per-unit deadline override
//	-dir path          write each unit document to
//	                   <dir>/<experiment>-<insts>.<ext> instead of stdout
//
// The sweep client streams progress to stderr as unit records land and
// completed documents to stdout (or -dir). Exit codes: 0 — every unit
// clean, 1 — some unit degraded or failed, 2 — transport or protocol
// error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	cmd := "serve"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "serve":
		return serveCmd(args)
	case "submit":
		return submitCmd(args)
	case "sweep":
		return sweepCmd(args)
	case "health":
		return healthCmd(args)
	default:
		fmt.Fprintf(os.Stderr, "fgstpd: unknown command %q (want serve, submit, sweep or health)\n", cmd)
		return 2
	}
}

func serveCmd(args []string) int {
	fs := flag.NewFlagSet("fgstpd serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8321", "listen address (port 0 picks a free port)")
		cacheDir = fs.String("cache", "", "result cache directory (empty: caching disabled)")
		workers  = fs.Int("workers", 0, "job-executing workers (<= 0: GOMAXPROCS)")
		queueCap = fs.Int("queue", 0, "per-tenant queue bound (<= 0: 8)")
		shed     = fs.Int("shed", 0, "global load-shed watermark (<= 0: 4*queue)")
		timeout  = fs.Duration("timeout", 0, "default and maximum per-job deadline (<= 0: 2m)")
		chaos    = fs.Bool("chaos", false, "accept fault-injection jobs")
		portfile = fs.String("portfile", "", "write the bound base URL here once listening")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	core, err := server.New(server.Config{
		Workers:    *workers,
		QueueCap:   *queueCap,
		ShedMark:   *shed,
		Timeout:    *timeout,
		CacheDir:   *cacheDir,
		AllowChaos: *chaos,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgstpd:", err)
		return 2
	}

	// Catch SIGTERM before the port is bound: once /readyz can answer,
	// a signal must drain, never kill with the default action.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgstpd:", err)
		return 2
	}
	baseURL := "http://" + ln.Addr().String()
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(baseURL+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fgstpd:", err)
			return 2
		}
	}
	httpSrv := &http.Server{Handler: core.Handler()}
	fmt.Fprintf(os.Stderr, "fgstpd: listening on %s (cache %q, chaos %v)\n", baseURL, *cacheDir, *chaos)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "fgstpd:", err)
		return 2
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Graceful drain: stop admitting (Drain flips readyz and closes the
	// queue first, so late arrivals get a structured 503), let queued
	// and in-flight jobs finish, flush the cache index, then close the
	// listener once every response is written.
	fmt.Fprintln(os.Stderr, "fgstpd: draining (finishing in-flight jobs, refusing new ones)")
	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- core.Drain(drainCtx) }()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "fgstpd: shutdown:", err)
	}
	if err := <-drained; err != nil {
		fmt.Fprintln(os.Stderr, "fgstpd: drain:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "fgstpd: drained cleanly")
	return 0
}

func submitCmd(args []string) int {
	fs := flag.NewFlagSet("fgstpd submit", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "http://127.0.0.1:8321", "daemon base URL")
		kind       = fs.String("kind", "bench", "job kind: bench or sim")
		tenantName = fs.String("tenant", "", "tenant identity for admission control")
		experiment = fs.String("experiment", "", "bench: experiment id or \"all\"")
		workload   = fs.String("workload", "", "sim: workload name")
		machine    = fs.String("machine", "", "sim: machine preset")
		mode       = fs.String("mode", "", "sim: execution mode or \"all\"")
		insts      = fs.Uint64("insts", 0, "instruction budget (0: server default)")
		format     = fs.String("format", "", "output format: text, json or csv")
		inject     = fs.String("inject", "", "fault injection (needs a -chaos server)")
		timeout    = fs.Duration("timeout", 0, "per-job deadline override")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var path string
	var body any
	timeoutMillis := timeout.Milliseconds()
	switch *kind {
	case "bench":
		path = "/v1/bench"
		body = server.BenchRequest{
			Experiment: *experiment, Insts: *insts, Format: *format,
			Inject: *inject, TimeoutMillis: timeoutMillis,
		}
	case "sim":
		path = "/v1/sim"
		body = server.SimRequest{
			Workload: *workload, Machine: *machine, Mode: *mode,
			Insts: *insts, Format: *format,
			Inject: *inject, TimeoutMillis: timeoutMillis,
		}
	default:
		fmt.Fprintf(os.Stderr, "fgstpd: unknown -kind %q (want bench or sim)\n", *kind)
		return 2
	}

	resp, err := postJSON(*addr+path, *tenantName, body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgstpd:", err)
		return 2
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The structured error document goes to stderr; stdout stays
		// reserved for result payloads.
		io.Copy(os.Stderr, resp.Body)
		fmt.Fprintf(os.Stderr, "fgstpd: server returned %s\n", resp.Status)
		return 2
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		fmt.Fprintln(os.Stderr, "fgstpd:", err)
		return 2
	}
	if resp.Header.Get(server.HeaderExit) == "1" {
		fmt.Fprintln(os.Stderr, "fgstpd: job completed with FAIL cells")
		return 1
	}
	return 0
}

func healthCmd(args []string) int {
	fs := flag.NewFlagSet("fgstpd health", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8321", "daemon base URL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ok := true
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(*addr + probe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fgstpd: %s: %v\n", probe, err)
			return 2
		}
		status, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("%s %d %s", probe, resp.StatusCode, status)
		ok = ok && resp.StatusCode == http.StatusOK
	}
	if !ok {
		return 1
	}
	return 0
}

// postJSON sends one job; the connection has no client-side timeout —
// the server's per-job deadline bounds the wait, and Ctrl-C works.
func postJSON(url, tenantName string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantName != "" {
		req.Header.Set(server.HeaderTenant, tenantName)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		var ue interface{ Unwrap() error }
		if errors.As(err, &ue) {
			err = ue.Unwrap()
		}
		return nil, err
	}
	return resp, nil
}
