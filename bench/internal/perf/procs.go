package perf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Build compiles the simulator's commands from the repository at root
// into dir, before anything is timed.
func Build(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/fgstpbench", "./cmd/fgstpsim", "./cmd/fgstpd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the simulator's commands: %w", err)
	}
	return nil
}

// Proc is the outcome of one finished child process.
type Proc struct {
	Stdout []byte
	Wall   time.Duration // exec to exit
	CPU    time.Duration // user + system
	MaxRSS int64         // peak resident set, bytes
}

// RunCmd runs bin to completion and reports its stdout and resource
// use. A nonzero exit is an error that quotes the end of its stderr.
func RunCmd(ctx context.Context, bin string, args ...string) (Proc, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	p := Proc{Stdout: stdout.Bytes(), Wall: time.Since(t0)}
	if cmd.ProcessState != nil {
		p.CPU, p.MaxRSS = usage(cmd.ProcessState)
	}
	if err != nil {
		return p, fmt.Errorf("%s %s: %w%s", filepath.Base(bin), strings.Join(args, " "), err, tail(stderr.String()))
	}
	return p, nil
}

func usage(ps *os.ProcessState) (cpu time.Duration, maxRSS int64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		maxRSS = int64(ru.Maxrss) * 1024 // Linux reports KiB
	}
	return cpu, maxRSS
}

// tail quotes the last line of a child's stderr for an error message.
func tail(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return ": " + s
}

// Daemon is a running fgstpd serve process.
type Daemon struct {
	URL    string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been waited for
}

// readyTimeout bounds spawn to /readyz; the daemon is ready in
// milliseconds, so hitting it means the daemon is broken.
const readyTimeout = 30 * time.Second

// StartDaemon spawns fgstpd with two workers and a fresh result cache
// under dir, and returns once /readyz answers 200, with the time that
// took. On error no process is left running.
func StartDaemon(ctx context.Context, bin, dir string) (*Daemon, time.Duration, error) {
	portfile := filepath.Join(dir, "port")
	d := &Daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-portfile", portfile,
		"-cache", filepath.Join(dir, "cache"), "-workers", workers)
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting fgstpd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(ctx, portfile, t0); err != nil {
		d.Kill()
		return nil, 0, fmt.Errorf("fgstpd: %w%s", err, tail(d.stderr.String()))
	}
	return d, time.Since(t0), nil
}

// waitReady polls, every millisecond so the poll adds little to the
// measured set-up time, for the port file and then for /readyz.
func (d *Daemon) waitReady(ctx context.Context, portfile string, t0 time.Time) error {
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.exited:
			return errors.New("exited before becoming ready")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Since(t0) > readyTimeout {
			return fmt.Errorf("not ready after %v", readyTimeout)
		}
		if d.URL == "" {
			if b, err := os.ReadFile(portfile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.URL = strings.TrimSpace(string(b))
			}
		}
		if d.URL != "" {
			resp, err := probe.Get(d.URL + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// drainTimeout bounds a graceful stop; fgstpd drains in-flight jobs,
// and a benchmark run has none left when it stops the daemon.
const drainTimeout = 60 * time.Second

// Stop sends SIGTERM, waits for the daemon to drain and exit, and
// reports its CPU time and peak RSS over its whole life.
func (d *Daemon) Stop() (Proc, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.Kill()
		return Proc{}, fmt.Errorf("stopping fgstpd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(drainTimeout):
		d.Kill()
		return Proc{}, fmt.Errorf("fgstpd did not drain within %v", drainTimeout)
	}
	var p Proc
	p.CPU, p.MaxRSS = usage(d.cmd.ProcessState)
	if !d.cmd.ProcessState.Success() {
		return p, fmt.Errorf("fgstpd exited with %v%s", d.cmd.ProcessState, tail(d.stderr.String()))
	}
	return p, nil
}

// Kill ends the daemon at once and waits for it; safe to call after it
// has exited.
func (d *Daemon) Kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}
