package perf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The fgstpd-mixed workload: one daemon with two workers and a fresh
// result cache, and two closed-loop clients on one connection each. The
// sim client sends /v1/sim requests, the sweep client /v1/sweep
// requests, under separate tenants so the daemon's fair dequeue
// interleaves them. Their document spaces are disjoint (fgstp.sim/1 vs
// fgstp.bench/1), so which requests hit the cache depends only on each
// client's own script, and every response is checked against the miss
// or hit its position in the script implies.

// DaemonJobs is the per-request simulation fan-out the clients ask for:
// the daemon's two workers already occupy the host's two cores.
const DaemonJobs = 1

// Cache outcomes as fgstpd reports them in X-Fgstpd-Cache.
const (
	cacheHit  = "hit"
	cacheMiss = "miss"
)

// clientLog is one client's record of its requests.
type clientLog struct {
	attempted, failed int
	errs              []error
	hitMs, missMs     []float64
}

func (c *clientLog) fail(err error) {
	c.failed++
	c.note(err)
}

// note keeps an error message without counting a failed operation.
func (c *clientLog) note(err error) {
	if len(c.errs) < maxErrors {
		c.errs = append(c.errs, err)
	}
}

// record files one successful request's latency by its cache outcome.
func (c *clientLog) record(cache string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	if cache == cacheHit {
		c.hitMs = append(c.hitMs, ms)
	} else {
		c.missMs = append(c.missMs, ms)
	}
}

func expectedCache(first bool) string {
	if first {
		return cacheMiss
	}
	return cacheHit
}

func runFgstpdMixed(ctx context.Context, env Env, o *Outcome) {
	// The daemon's life (start, /metricz, drain) is one operation.
	o.Attempted++
	dir, err := os.MkdirTemp(env.Tmp, "fgstpd-")
	if err != nil {
		o.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	d, _, err := StartDaemon(ctx, env.bin("fgstpd"), dir)
	if err != nil {
		o.fail(err)
		return
	}
	defer d.Kill()

	var sim, sweep clientLog
	var wg sync.WaitGroup
	wg.Add(2)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		runSimClient(ctx, env, d.URL, &sim)
	}()
	go func() {
		defer wg.Done()
		runSweepClient(ctx, env, d.URL, &sweep)
	}()
	wg.Wait()
	o.Wall = time.Since(t0)

	mz, scrapeErr := scrapeMetricz(ctx, d.URL)
	o.Metricz = mz
	p, stopErr := d.Stop()
	o.CPU, o.MaxRSS = p.CPU, p.MaxRSS
	if err := errors.Join(scrapeErr, stopErr); err != nil {
		o.fail(err)
	}

	for _, c := range []*clientLog{&sim, &sweep} {
		o.Attempted += c.attempted
		o.Failed += c.failed
		for _, err := range c.errs {
			if len(o.Errors) < maxErrors {
				o.Errors = append(o.Errors, err.Error())
			}
		}
	}
	o.Info["sim_hits"] = float64(len(sim.hitMs))
	o.Info["sim_misses"] = float64(len(sim.missMs))
	o.Info["unit_hits"] = float64(len(sweep.hitMs))
	o.Info["unit_misses"] = float64(len(sweep.missMs))
	pcts := []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"sim_hit_p50_ms", sim.hitMs, 0.5},
		{"sim_miss_p50_ms", sim.missMs, 0.5},
		{"sim_p90_ms", append(append([]float64(nil), sim.hitMs...), sim.missMs...), 0.9},
		{"sweep_unit_p50_ms", append(append([]float64(nil), sweep.hitMs...), sweep.missMs...), 0.5},
		{"sweep_unit_p90_ms", append(append([]float64(nil), sweep.hitMs...), sweep.missMs...), 0.9},
	}
	for _, pc := range pcts {
		v, err := Percentile(pc.xs, pc.p)
		if err != nil {
			o.fail(fmt.Errorf("%s: %w", pc.name, err))
			continue
		}
		o.Info[pc.name] = v
	}
}

// newClient is one closed-loop client: a single connection, reused.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func post(ctx context.Context, c *http.Client, url, tenant string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	return c.Do(req)
}

func runSimClient(ctx context.Context, env Env, base string, log *clientLog) {
	c := newClient()
	defer c.CloseIdleConnections()
	script := SimScript(env.Seed)
	keys := make([]string, len(script))
	for i, k := range script {
		keys[i] = k.Request().Key()
	}
	first := FirstSeen(keys)
	root := env.Rec.Start("client sim", 0, nil)
	defer env.Rec.End(root)
	for i, k := range script {
		if ctx.Err() != nil {
			log.attempted += len(script) - i
			log.fail(ctx.Err())
			log.failed += len(script) - i - 1
			return
		}
		want := expectedCache(first[i])
		span := env.Rec.Start("POST /v1/sim", root, map[string]string{
			"request": strconv.Itoa(i), "key": keys[i], "expect": want})
		t0 := time.Now()
		cache, err := simRequest(ctx, c, base, env.Golden, k, want)
		lat := time.Since(t0)
		env.Rec.End(span)
		log.attempted++
		if err != nil {
			log.fail(fmt.Errorf("sim request %d (%s): %w", i, keys[i], err))
			continue
		}
		log.record(cache, lat)
	}
}

// simRequest sends one /v1/sim request and checks the response: 200,
// a clean exit, the expected cache outcome and the golden bytes.
func simRequest(ctx context.Context, c *http.Client, base string, g Golden, k SimKey, want string) (string, error) {
	resp, err := post(ctx, c, base+"/v1/sim", "sim", map[string]any{
		"workload": k.Workload, "machine": k.Machine, "mode": k.Mode,
		"insts": k.Insts, "format": "json", "jobs": DaemonJobs,
	})
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s%s", resp.Status, tail(string(body)))
	}
	if e := resp.Header.Get("X-Fgstpd-Exit"); e != "0" {
		return "", fmt.Errorf("exit %q", e)
	}
	cache := resp.Header.Get("X-Fgstpd-Cache")
	if cache != want {
		return cache, fmt.Errorf("cache %q, want %q", cache, want)
	}
	return cache, g.Check(k.Request(), body)
}

func runSweepClient(ctx context.Context, env Env, base string, log *clientLog) {
	c := newClient()
	defer c.CloseIdleConnections()
	script := SweepScript(env.Seed)
	var keys []string
	for _, q := range script {
		for _, u := range q.Units() {
			keys = append(keys, u.Request().Key())
		}
	}
	first := FirstSeen(keys)
	root := env.Rec.Start("client sweep", 0, nil)
	defer env.Rec.End(root)
	next := 0 // index of the request's first unit in keys
	for i, q := range script {
		units := q.Units()
		want := make(map[Unit]string, len(units))
		for j, u := range units {
			want[u] = expectedCache(first[next+j])
		}
		next += len(units)
		log.attempted += len(units)
		if ctx.Err() != nil {
			log.fail(ctx.Err())
			log.failed += len(units) - 1
			continue
		}
		span := env.Rec.Start("POST /v1/sweep", root, map[string]string{
			"request": strconv.Itoa(i), "experiments": strings.Join(q.Experiments, ",")})
		confirmed, errs := sweepRequest(ctx, c, base, env, q, want, span, log)
		env.Rec.End(span)
		// Every unit the stream did not confirm is a failure; a bad
		// summary after all units confirmed counts as one.
		bad := len(units) - confirmed
		if bad == 0 && len(errs) > 0 {
			bad = 1
		}
		log.failed += bad
		for _, err := range errs {
			log.note(fmt.Errorf("sweep request %d: %w", i, err))
		}
	}
}

// sweepRecord is the union of the fgstpd.sweep/1 stream's unit and
// summary records.
type sweepRecord struct {
	Unit       *int   `json:"unit"`
	Experiment string `json:"experiment"`
	Insts      uint64 `json:"insts"`
	Status     int    `json:"status"`
	Exit       int    `json:"exit"`
	Cache      string `json:"cache"`
	Document   string `json:"document"`
	Done       bool   `json:"done"`
	OK         int    `json:"ok"`
}

// sweepRequest sends one /v1/sweep request and checks its stream unit
// by unit, timing each unit from the send to its record. It returns how
// many units it confirmed and what went wrong with the others.
func sweepRequest(ctx context.Context, c *http.Client, base string, env Env, q SweepReq,
	want map[Unit]string, span int, log *clientLog) (confirmed int, errs []error) {
	t0 := time.Now()
	resp, err := post(ctx, c, base+"/v1/sweep", "sweep", map[string]any{
		"experiments": q.Experiments, "insts": SweepInsts, "format": "json", "jobs": DaemonJobs,
	})
	if err != nil {
		return 0, []error{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return 0, []error{fmt.Errorf("status %s%s", resp.Status, tail(string(body)))}
	}
	rd := bufio.NewReader(resp.Body)
	header := true
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) == 0 && err != nil {
			if errors.Is(err, io.EOF) {
				err = errors.New("stream ended without a summary")
			}
			return confirmed, append(errs, err)
		}
		if header {
			header = false
			var h struct{ Units int }
			if err := json.Unmarshal(line, &h); err != nil || h.Units != len(want) {
				return confirmed, append(errs, fmt.Errorf("bad stream header %.80s", line))
			}
			continue
		}
		var rec sweepRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return confirmed, append(errs, fmt.Errorf("bad stream record: %w", err))
		}
		switch {
		case rec.Unit != nil:
			u := Unit{rec.Experiment, rec.Insts}
			lat := env.Rec.Since("unit", span, t0, map[string]string{"unit": u.Request().Key(), "cache": rec.Cache})
			if err := checkUnit(env.Golden, u, rec, want); err != nil {
				errs = append(errs, err)
				continue
			}
			delete(want, u)
			confirmed++
			log.record(rec.Cache, lat)
		case rec.Done:
			if len(want) > 0 || rec.OK != confirmed {
				errs = append(errs, fmt.Errorf("summary after %d confirmed units, %d ok", confirmed, rec.OK))
			}
			return confirmed, errs
		default:
			return confirmed, append(errs, fmt.Errorf("unexpected stream record %.80s", line))
		}
	}
}

func checkUnit(g Golden, u Unit, rec sweepRecord, want map[Unit]string) error {
	w, ok := want[u]
	switch {
	case !ok:
		return fmt.Errorf("unit %s: not requested or repeated", u.Request().Key())
	case rec.Status != http.StatusOK || rec.Exit != 0:
		return fmt.Errorf("unit %s: status %d exit %d", u.Request().Key(), rec.Status, rec.Exit)
	case rec.Cache != w:
		return fmt.Errorf("unit %s: cache %q, want %q", u.Request().Key(), rec.Cache, w)
	}
	return g.Check(u.Request(), []byte(rec.Document))
}

// scrapeMetricz reads fgstpd's counters ("name value" lines).
func scrapeMetricz(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("metricz: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metricz line %q: %w", sc.Text(), err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}
