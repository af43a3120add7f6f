#!/usr/bin/env bash
# End-to-end smoke test for `wap serve`, run by CI after a release build:
#
#   1. boot the server on a fixed local port with a persistent cache dir
#   2. poll /healthz until it answers
#   3. POST a scan of a small vulnerable app, validate the SARIF shape
#      with the checked-in jq assertion (scripts/sarif_assert.jq)
#   4. compare the server's SARIF byte-for-byte against the CLI's
#   5. rescan (warm cache) and require identical bytes + a cache hit
#   6. a cold and a warm lint + values scan, each byte-identical to the CLI
#   7. upload a 600-function call chain (about 23 KB) as a tarball,
#      require its flow, then require /healthz to still answer
#   8. SIGTERM the server and require a graceful exit with status 0
#
# Requires: curl, jq, and target/release/wap (built by the caller).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="$ROOT/target/release/wap"
ADDR="127.0.0.1:18473"
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -KILL "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$WORK/server.log" >&2 || true
    exit 1
}

# Waits at most 10 s for PID to exit and stores its exit status in
# EXIT_STATUS, so a shutdown bug fails the job fast instead of hanging it
# until the runner times out. `kill -0` cannot tell: an exited child
# still answers it until reaped, so the process state is read instead.
wait_exit() {
    local pid="$1" what="$2" state
    for _ in $(seq 1 100); do
        state="$(ps -o stat= -p "$pid" 2>/dev/null || true)"
        case "${state// /}" in
            "" | Z*)
                EXIT_STATUS=0
                wait "$pid" || EXIT_STATUS=$?
                return 0
                ;;
        esac
        sleep 0.1
    done
    fail "$what still running 10 s after SIGTERM"
}

[[ -x "$BIN" ]] || { echo "serve-smoke: build target/release/wap first" >&2; exit 1; }

# A tiny app with a tainted SQL sink and a reflected echo: enough to make
# the SARIF results, codeFlows, and rule table all non-empty.
mkdir -p "$WORK/app"
cat > "$WORK/app/index.php" <<'PHP'
<?php
$id = $_GET['id'];
mysql_query("SELECT * FROM users WHERE id = $id");
echo "<p>Hello " . $_GET['name'] . "</p>";
PHP

# Polls /healthz with a bounded retry budget (~10s), failing fast — with
# the server log attached — if the server exits early or never answers.
wait_healthz() {
    local url="$1" pid="$2"
    for _ in $(seq 1 100); do
        if curl -fsS "$url/healthz" > /dev/null 2>&1; then
            return 0
        fi
        kill -0 "$pid" 2>/dev/null || fail "server exited before /healthz came up"
        sleep 0.1
    done
    fail "/healthz never became ready within the retry budget"
}

echo "serve-smoke: starting server on $ADDR"
"$BIN" serve --addr "$ADDR" --cache-dir "$WORK/cache" --workers 2 \
    > "$WORK/server.log" 2>&1 &
SERVER_PID=$!
wait_healthz "http://$ADDR" "$SERVER_PID"
echo "serve-smoke: /healthz OK"

# --- cold scan: SARIF shape + byte-identity with the CLI ------------------
curl -fsS -X POST "http://$ADDR/v1/scan?path=$WORK/app&format=sarif" \
    -o "$WORK/server.sarif" || fail "cold scan request failed"
jq -e -f "$ROOT/scripts/sarif_assert.jq" "$WORK/server.sarif" > /dev/null \
    || fail "server SARIF failed shape assertions"
echo "serve-smoke: SARIF shape OK"

"$BIN" --format sarif --fail-on none "$WORK/app" > "$WORK/cli.sarif" \
    || fail "CLI scan failed"
cmp "$WORK/server.sarif" "$WORK/cli.sarif" \
    || fail "server SARIF differs from CLI SARIF"
echo "serve-smoke: server output byte-identical to CLI"

# --- warm rescan: identical bytes, served from the shared cache -----------
curl -fsS -X POST "http://$ADDR/v1/scan?path=$WORK/app&format=sarif" \
    -o "$WORK/warm.sarif" || fail "warm scan request failed"
cmp "$WORK/server.sarif" "$WORK/warm.sarif" \
    || fail "warm rescan changed the report bytes"

curl -fsS "http://$ADDR/metrics" > "$WORK/metrics.txt" || fail "/metrics failed"
grep -q '^wap_serve_jobs_completed_total 2$' "$WORK/metrics.txt" \
    || fail "expected 2 completed jobs in /metrics: $(cat "$WORK/metrics.txt")"
awk '$1 == "wap_serve_cache_hits_total" && $2 > 0 { found = 1 } END { exit !found }' \
    "$WORK/metrics.txt" || fail "warm rescan did not hit the cache"
echo "serve-smoke: warm rescan identical, cache hit recorded"

# --- latency histograms ---------------------------------------------------
# Every completed scan contributes one observation to the scan, queue-wait,
# and per-phase histograms, so their _count series must equal
# jobs_completed (2 at this point).
grep -q '^wap_serve_scan_duration_seconds_count 2$' "$WORK/metrics.txt" \
    || fail "scan duration histogram count != completed jobs"
grep -q '^wap_serve_queue_wait_seconds_count 2$' "$WORK/metrics.txt" \
    || fail "queue wait histogram count != completed jobs"
grep -q '^wap_serve_scan_duration_seconds_bucket{le="+Inf"} 2$' "$WORK/metrics.txt" \
    || fail "scan duration +Inf bucket != completed jobs"
for phase in parse taint predict cache; do
    grep -q "^wap_serve_phase_duration_seconds_count{phase=\"$phase\"} 2\$" \
        "$WORK/metrics.txt" || fail "phase histogram missing for $phase"
done
grep -q '^# TYPE wap_serve_scan_duration_seconds histogram$' "$WORK/metrics.txt" \
    || fail "scan duration family not typed as histogram"
echo "serve-smoke: latency histograms OK"

# --- lint + values: the lint stage runs inside the one scan pipeline -------
# A cold and then a warm `?lint=1&values=1` scan on the shared cache must
# each render the CLI's bytes: the warm one replays the `cfg` and `values`
# entries the cold one wrote.
"$BIN" --lint --values --format sarif --fail-on none "$WORK/app" > "$WORK/cli-lint.sarif" \
    || fail "CLI lint scan failed"
for run in cold warm; do
    curl -fsS -X POST "http://$ADDR/v1/scan?path=$WORK/app&lint=1&values=1&format=sarif" \
        -o "$WORK/lint-$run.sarif" || fail "$run lint scan request failed"
    cmp "$WORK/lint-$run.sarif" "$WORK/cli-lint.sarif" \
        || fail "$run lint scan SARIF differs from the CLI's"
done
echo "serve-smoke: cold and warm lint scans byte-identical to CLI"

# --- call-chain upload: the chain's length must not become stack depth ----
# Summaries are derived callee-first, so a worker's default 2 MiB stack
# scans any chain length; before that, this upload killed the server.
mkdir -p "$WORK/chain"
{
    echo '<?php'
    for i in $(seq 0 599); do
        echo "function f$i(\$x) { return f$((i + 1))(\$x); }"
    done
    echo 'function f600($x) { return $x; }'
    echo 'echo f0($_GET["q"]);'
} > "$WORK/chain/chain.php"
tar --format=ustar -C "$WORK/chain" -cf "$WORK/chain.tar" chain.php
curl -fsS -X POST -H 'Content-Type: application/x-tar' --data-binary "@$WORK/chain.tar" \
    "http://$ADDR/v1/scan?format=ndjson" -o "$WORK/chain.ndjson" \
    || fail "call-chain upload failed"
grep -q 'XSS' "$WORK/chain.ndjson" || fail "call-chain flow missing: $(cat "$WORK/chain.ndjson")"
curl -fsS "http://$ADDR/healthz" > /dev/null || fail "/healthz failed after the call-chain upload"
echo "serve-smoke: call-chain upload OK, server healthy"

# --- CLI trace: NDJSON schema validated by the checked-in jq assertion ----
"$BIN" --format text --stats --trace "$WORK/trace.ndjson" --fail-on none \
    "$WORK/app" > "$WORK/cli-stats.txt" || fail "CLI --trace run failed"
grep -q "phase totals:" "$WORK/cli-stats.txt" \
    || fail "--stats output missing the phase totals section"
grep -q "slowest files" "$WORK/cli-stats.txt" \
    || fail "--stats output missing the slowest-files section"
jq -s -e -f "$ROOT/scripts/trace_assert.jq" "$WORK/trace.ndjson" > /dev/null \
    || fail "trace NDJSON failed schema assertions"
echo "serve-smoke: --trace/--stats OK"

# --- graceful shutdown ----------------------------------------------------
kill -TERM "$SERVER_PID"
wait_exit "$SERVER_PID" "server"
[[ "$EXIT_STATUS" -eq 0 ]] || fail "server exited $EXIT_STATUS on SIGTERM (want 0)"
grep -q "drained" "$WORK/server.log" || fail "server log missing drain message"
SERVER_PID=""
echo "serve-smoke: graceful shutdown OK"

echo "serve-smoke: PASS"
