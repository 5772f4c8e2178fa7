#!/bin/sh
# loadsmoke.sh — end-to-end smoke of the pariod serving stack.
#
# Usage:
#   scripts/loadsmoke.sh
#
# Builds pariod and pariobench, starts the daemon on an ephemeral port,
# then walks the full service contract:
#   1. /healthz answers ok
#   2. a cold run misses the cache, a rerun hits it, bodies byte-identical
#   3. the run counter does not move on the cached rerun
#   4. pariobench's mixed hot/cold stream holds runs == misses
#   5. -pprof-addr serves the pprof index on its own listener, and the
#      service mux does not answer 200 on /debug/pprof/
#   6. SIGTERM drains gracefully (daemon prints "drained" and exits 0)
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "loadsmoke: building..."
go build -o "$tmp/pariod" ./cmd/pariod
go build -o "$tmp/pariobench" ./cmd/pariobench

"$tmp/pariod" -addr 127.0.0.1:0 -pprof-addr 127.0.0.1:0 >"$tmp/pariod.log" 2>&1 &
daemon_pid=$!

# The daemon prints "pariod: listening on http://HOST:PORT" once bound.
base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's,^pariod: listening on \(http://[^ ]*\)$,\1,p' "$tmp/pariod.log")
    [ -n "$base" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { cat "$tmp/pariod.log"; echo "loadsmoke: FAIL: daemon died on startup"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "loadsmoke: FAIL: daemon never bound"; exit 1; }
pprof=$(sed -n 's,^pariod: pprof on \(http://[^ ]*\)$,\1,p' "$tmp/pariod.log")
[ -n "$pprof" ] || { echo "loadsmoke: FAIL: no pprof address in startup log"; cat "$tmp/pariod.log"; exit 1; }
echo "loadsmoke: daemon up at $base, pprof at $pprof"

curl -fsS "$base/healthz" >/dev/null || { echo "loadsmoke: FAIL: healthz"; exit 1; }

req='{"app":"scf11","procs":4,"input":"SMALL"}'
curl -fsS -D "$tmp/h1" -o "$tmp/b1" -H 'Content-Type: application/json' -d "$req" "$base/run"
grep -qi '^x-pario-cache: miss' "$tmp/h1" || { echo "loadsmoke: FAIL: cold run was not a miss"; cat "$tmp/h1"; exit 1; }
runs1=$(curl -fsS "$base/metrics" | sed -n 's/.*"runs_total": *\([0-9]*\).*/\1/p')

curl -fsS -D "$tmp/h2" -o "$tmp/b2" -H 'Content-Type: application/json' -d "$req" "$base/run"
grep -qi '^x-pario-cache: hit' "$tmp/h2" || { echo "loadsmoke: FAIL: rerun was not a hit"; cat "$tmp/h2"; exit 1; }
cmp -s "$tmp/b1" "$tmp/b2" || { echo "loadsmoke: FAIL: cached body differs from fresh body"; exit 1; }
runs2=$(curl -fsS "$base/metrics" | sed -n 's/.*"runs_total": *\([0-9]*\).*/\1/p')
[ "$runs1" = "$runs2" ] || { echo "loadsmoke: FAIL: cached rerun re-simulated ($runs1 -> $runs2)"; exit 1; }
echo "loadsmoke: cold/cached contract holds (runs_total stayed at $runs1)"

"$tmp/pariobench" -addr "${base#http://}" -n 40 -c 8 -hot 0.8

curl -fsS "$pprof" >/dev/null || { echo "loadsmoke: FAIL: pprof index unreachable"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/debug/pprof/")
[ "$code" != 200 ] || { echo "loadsmoke: FAIL: service mux exposes /debug/pprof/"; exit 1; }
echo "loadsmoke: pprof on its own listener only"

kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" = 0 ] || { echo "loadsmoke: FAIL: daemon exited $rc"; cat "$tmp/pariod.log"; exit 1; }
grep -q 'pariod: drained' "$tmp/pariod.log" || { echo "loadsmoke: FAIL: no drain confirmation"; cat "$tmp/pariod.log"; exit 1; }
echo "loadsmoke: graceful drain confirmed"
echo "loadsmoke: OK"
