#!/usr/bin/env sh
# Tier-1 gate: everything a change must pass before it lands.
#   go vet          static checks
#   go build        whole-tree compile (commands and examples included)
#   tracetool       examples/tracetool reading 5,000 steering decisions
#                   in order: SteerDecision's only caller, run past the
#                   2,048-entry medium steering ring so its reads wrap
#                   it (reading an overwritten decision panics)
#   examples        every other example (quickstart, ablation, adaptive,
#                   energy, pipeview, sampling, specsweep) at a small
#                   budget must exit 0: they drive the run, restore and
#                   Machine APIs, which go build only compiles
#   bench vet       go vet of the bench/ module (its own go.mod, so
#                   ./... above does not reach it), plain and with the
#                   traced run's build tag: an internal API change that
#                   breaks the benchmark's build fails here
#   go test -race   unit + guard tests under the race detector; this is
#                   what keeps the worker-pool harness honest — the
#                   concurrent-modes guard test replays one shared trace
#                   on every machine mode at once
#   bench smoke     one iteration of the E2 benchmark, proving the
#                   experiment harness end-to-end
#   fuzz smoke      5s of the trace-loader fuzzer: corrupt bytes must
#                   error, never panic, and a trace the loader accepts
#                   must save and load back unchanged
#   degraded smoke  fgstpbench with an injected livelock must finish
#                   the experiment, exit 1, and print byte-identical
#                   reports for -jobs 1 and -jobs 4; then the same over
#                   the whole evaluation (-experiment all), where the
#                   poisoned Fg-STP cells are left out of the cell plan
#                   and fail while their experiments render
#   json smoke      fgstpbench -format json must emit a valid export
#                   (scripts/jsoncheck) byte-identical across -jobs,
#                   and fgstpsim -tracejson a valid Chrome trace; the
#                   deprecated -hotblock=0 flag (still passed by
#                   bench/'s golden command) must be accepted and
#                   change nothing
#   trace smoke     fgstpsim -savetrace, then -loadtrace: the report
#                   from the loaded trace must be byte-identical to the
#                   direct run's, and re-saving the loaded trace must
#                   reproduce the file byte for byte (the last record's
#                   next-PC, which no later record repeats, included)
#   all-exp smoke   fgstpbench -experiment all output must be
#                   byte-identical at -jobs 1 and 4
#   sampled smoke   scripts/simpointcheck on a fixed workload set: the
#                   checkpointed SimPoint estimate's 95% confidence
#                   interval must contain the full-run IPC in every
#                   machine mode; plus a sampled fgstpsim report
#                   (-simpoint) byte-identical for -jobs 1 and -jobs 4
#   service smoke   fgstpd end to end: start the daemon, submit a job
#                   over HTTP, the response must be byte-identical to
#                   fgstpbench stdout (uncached and cached); stream a
#                   2-experiment sweep whose documents must equal the
#                   fgstpbench exports, then re-run it and require the
#                   whole sweep served from cache (zero cells run);
#                   finally SIGTERM with a job in flight must drain
#                   gracefully — the job finishes, the daemon exits 0
#   signal smoke    SIGTERM sent the moment /readyz answers 200 must
#                   drain, not kill: the daemon exits 0, "drained cleanly"
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== tracetool (steering decisions past the ring)"
go run ./examples/tracetool -workload gcc -insts 20000 -steer 5000 >/dev/null

echo "== examples smoke (every other example at a small budget)"
go run ./examples/quickstart >/dev/null
go run ./examples/ablation -insts 5000 >/dev/null
go run ./examples/adaptive -insts 5000 >/dev/null
go run ./examples/energy -insts 5000 >/dev/null
go run ./examples/pipeview -insts 2000 >/dev/null
go run ./examples/sampling -insts 20000 -interval 2000 -warmup 1000 -k 3 >/dev/null
go run ./examples/specsweep -insts 3000 -machine small >/dev/null

echo "== go vet bench/ (plain and -tags fgstpperf_trace)"
go -C bench vet ./...
go -C bench vet -tags fgstpperf_trace ./...

echo "== go test -race ./..."
go test -race ./...

echo "== bench smoke (E2, 1 iteration)"
go test -run='^$' -bench=E2 -benchtime=1x .

echo "== fuzz smoke (trace loader, 5s)"
go test -run='^$' -fuzz=FuzzTraceLoad -fuzztime=5s ./internal/trace

echo "== degraded-run smoke (injected livelock, exit 1, jobs-determinism)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/fgstpbench" ./cmd/fgstpbench
status=0
"$tmp/fgstpbench" -experiment E8 -insts 3000 -inject gobmk -jobs 1 \
    >"$tmp/degraded1.txt" 2>/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "degraded run exited $status, want 1"; exit 1; }
status=0
"$tmp/fgstpbench" -experiment E8 -insts 3000 -inject gobmk -jobs 4 \
    >"$tmp/degraded4.txt" 2>/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "degraded run (-jobs 4) exited $status, want 1"; exit 1; }
cmp "$tmp/degraded1.txt" "$tmp/degraded4.txt" || {
    echo "degraded output differs between -jobs 1 and -jobs 4"; exit 1; }
grep -q 'FAIL(livelock)' "$tmp/degraded1.txt" || {
    echo "degraded output missing FAIL(livelock) cell"; exit 1; }
for j in 1 4; do
    status=0
    "$tmp/fgstpbench" -experiment all -insts 3000 -inject gobmk -jobs "$j" \
        >"$tmp/degraded-all$j.txt" 2>/dev/null || status=$?
    [ "$status" -eq 1 ] || {
        echo "degraded whole evaluation (-jobs $j) exited $status, want 1"; exit 1; }
done
cmp "$tmp/degraded-all1.txt" "$tmp/degraded-all4.txt" || {
    echo "degraded whole evaluation differs between -jobs 1 and -jobs 4"; exit 1; }
grep -q 'FAIL(livelock)' "$tmp/degraded-all1.txt" || {
    echo "degraded whole evaluation missing FAIL(livelock) cell"; exit 1; }

echo "== json-export smoke (valid export, jobs-determinism, pipeline trace)"
"$tmp/fgstpbench" -experiment E2 -insts 3000 -format json -jobs 1 \
    >"$tmp/export1.json" 2>/dev/null
"$tmp/fgstpbench" -experiment E2 -insts 3000 -format json -jobs 4 \
    >"$tmp/export4.json" 2>/dev/null
cmp "$tmp/export1.json" "$tmp/export4.json" || {
    echo "JSON export differs between -jobs 1 and -jobs 4"; exit 1; }
"$tmp/fgstpbench" -experiment E2 -insts 3000 -format json -hotblock=0 -jobs 1 \
    >"$tmp/exportnohb.json" 2>/dev/null || {
    echo "fgstpbench rejected the deprecated -hotblock=0 flag"; exit 1; }
cmp "$tmp/export1.json" "$tmp/exportnohb.json" || {
    echo "JSON export differs with the ignored -hotblock=0 flag"; exit 1; }
go run ./scripts/jsoncheck <"$tmp/export1.json"
go build -o "$tmp/fgstpsim" ./cmd/fgstpsim
"$tmp/fgstpsim" -workload mcf -insts 3000 -mode fgstp -format json \
    -tracejson "$tmp/pipe.json" >/dev/null 2>&1
grep -q '"traceEvents"' "$tmp/pipe.json" || {
    echo "pipeline trace missing traceEvents"; exit 1; }

echo "== trace round-trip smoke (-savetrace/-loadtrace, byte-identical)"
"$tmp/fgstpsim" -workload gcc -insts 20000 -savetrace "$tmp/gcc.trace" >/dev/null
"$tmp/fgstpsim" -workload gcc -insts 20000 -format json >"$tmp/direct.json" 2>/dev/null
"$tmp/fgstpsim" -loadtrace "$tmp/gcc.trace" -insts 20000 -format json \
    >"$tmp/loaded.json" 2>/dev/null
cmp "$tmp/direct.json" "$tmp/loaded.json" || {
    echo "report from the loaded trace differs from the direct run"; exit 1; }
"$tmp/fgstpsim" -loadtrace "$tmp/gcc.trace" -savetrace "$tmp/gcc2.trace" >/dev/null
cmp "$tmp/gcc.trace" "$tmp/gcc2.trace" || {
    echo "re-saved trace differs from the file it was loaded from"; exit 1; }

echo "== all-experiments smoke (-experiment all, jobs 1 vs 4)"
"$tmp/fgstpbench" -experiment all -insts 3000 -format json -jobs 1 \
    >"$tmp/all1.json" 2>/dev/null
"$tmp/fgstpbench" -experiment all -insts 3000 -format json -jobs 4 \
    >"$tmp/all4.json" 2>/dev/null
cmp "$tmp/all1.json" "$tmp/all4.json" || {
    echo "-experiment all export differs between -jobs 1 and -jobs 4"; exit 1; }

echo "== sampled-accuracy smoke (estimate CI covers full-run IPC, jobs-determinism)"
go run ./scripts/simpointcheck
# Full runs and estimates share one pool, longest task first: the
# schedule changes with -jobs, the document must not.
"$tmp/fgstpsim" -workload calculix -insts 50000 -simpoint 5000 -format json -jobs 1 \
    >"$tmp/sampled1.json" 2>/dev/null
"$tmp/fgstpsim" -workload calculix -insts 50000 -simpoint 5000 -format json -jobs 4 \
    >"$tmp/sampled4.json" 2>/dev/null
cmp "$tmp/sampled1.json" "$tmp/sampled4.json" || {
    echo "sampled fgstpsim report differs between -jobs 1 and -jobs 4"; exit 1; }
grep -q '"simpoint"' "$tmp/sampled1.json" || {
    echo "sampled fgstpsim report has no simpoint block"; exit 1; }

echo "== service smoke (fgstpd byte-identity, cache, graceful drain)"
go build -o "$tmp/fgstpd" ./cmd/fgstpd
"$tmp/fgstpd" serve -addr 127.0.0.1:0 -cache "$tmp/cache" \
    -portfile "$tmp/fgstpd.port" 2>"$tmp/fgstpd.log" &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true; rm -rf "$tmp"' EXIT
i=0
while [ ! -s "$tmp/fgstpd.port" ]; do
    i=$((i+1))
    [ "$i" -le 100 ] || { echo "fgstpd never wrote its portfile"; cat "$tmp/fgstpd.log"; exit 1; }
    sleep 0.1
done
addr="$(cat "$tmp/fgstpd.port")"
"$tmp/fgstpd" health -addr "$addr" >/dev/null
"$tmp/fgstpd" submit -addr "$addr" -kind bench -experiment E2 -insts 3000 -format json \
    >"$tmp/served1.json"
cmp "$tmp/export1.json" "$tmp/served1.json" || {
    echo "served response differs from fgstpbench stdout"; exit 1; }
"$tmp/fgstpd" submit -addr "$addr" -kind bench -experiment E2 -insts 3000 -format json \
    >"$tmp/served2.json"
cmp "$tmp/served1.json" "$tmp/served2.json" || {
    echo "cached response differs from uncached response"; exit 1; }
# Sweep round-trip: every unit document must be byte-identical to the
# fgstpbench stdout for the same experiment/insts, and a repeated sweep
# must be served entirely from cache — zero cells recomputed.
"$tmp/fgstpd" sweep -addr "$addr" -experiments E1,E2 -insts 3000 -format json \
    -dir "$tmp/sweep1" 2>"$tmp/sweep1.log" || {
    echo "sweep failed"; cat "$tmp/sweep1.log"; exit 1; }
cmp "$tmp/export1.json" "$tmp/sweep1/E2-3000.json" || {
    echo "sweep E2 document differs from fgstpbench stdout"; exit 1; }
"$tmp/fgstpbench" -experiment E1 -insts 3000 -format json -jobs 1 \
    >"$tmp/e1.json" 2>/dev/null
cmp "$tmp/e1.json" "$tmp/sweep1/E1-3000.json" || {
    echo "sweep E1 document differs from fgstpbench stdout"; exit 1; }
"$tmp/fgstpd" sweep -addr "$addr" -experiments E1,E2 -insts 3000 -format json \
    -dir "$tmp/sweep2" 2>"$tmp/sweep2.log" || {
    echo "repeated sweep failed"; cat "$tmp/sweep2.log"; exit 1; }
cmp "$tmp/sweep1/E1-3000.json" "$tmp/sweep2/E1-3000.json" || {
    echo "repeated sweep E1 document differs"; exit 1; }
cmp "$tmp/sweep1/E2-3000.json" "$tmp/sweep2/E2-3000.json" || {
    echo "repeated sweep E2 document differs"; exit 1; }
grep -q 'sweep done: .* cells run=0 hit=0 miss=0' "$tmp/sweep2.log" || {
    echo "repeated sweep recomputed cells"; cat "$tmp/sweep2.log"; exit 1; }
# SIGTERM with a job in flight: the drain finishes the job (the client
# receives a complete document) and the daemon exits 0.
"$tmp/fgstpd" submit -addr "$addr" -kind bench -experiment E5 -insts 60000 -format json \
    >"$tmp/inflight.json" &
client=$!
sleep 1
kill -TERM "$daemon"
wait "$client" || { echo "in-flight submit failed during drain"; exit 1; }
status=0
wait "$daemon" || status=$?
trap 'rm -rf "$tmp"' EXIT
[ "$status" -eq 0 ] || {
    echo "fgstpd drain exited $status, want 0"; cat "$tmp/fgstpd.log"; exit 1; }
go run ./scripts/jsoncheck <"$tmp/inflight.json"
[ -s "$tmp/cache/index.json" ] || { echo "drained daemon left no cache index"; exit 1; }

echo "== signal smoke (SIGTERM as soon as /readyz answers drains cleanly)"
"$tmp/fgstpd" serve -addr 127.0.0.1:0 -portfile "$tmp/ready.port" 2>"$tmp/ready.log" &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true; rm -rf "$tmp"' EXIT
i=0
until [ -s "$tmp/ready.port" ] && "$tmp/fgstpd" health -addr "$(cat "$tmp/ready.port")" >/dev/null 2>&1; do
    i=$((i+1))
    [ "$i" -le 100 ] || { echo "fgstpd never became ready"; cat "$tmp/ready.log"; exit 1; }
    sleep 0.1
done
kill -TERM "$daemon"
status=0
wait "$daemon" || status=$?
trap 'rm -rf "$tmp"' EXIT
[ "$status" -eq 0 ] && grep -q 'drained cleanly' "$tmp/ready.log" || {
    echo "SIGTERM after readiness: fgstpd exited $status, want 0 and a clean drain"; cat "$tmp/ready.log"; exit 1; }

echo "check: ok"
