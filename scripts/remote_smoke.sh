#!/usr/bin/env bash
# remote_smoke.sh — end-to-end smoke test of the remote-shard fleet:
#
#   1. boot 4 riotblockd servers (one shard root each) + riotshared
#      striping over them with 2-way replication and persistence,
#   2. run a query end to end and verify it succeeds, then stream the
#      same query's result through GET /results/stream via the CLI and
#      verify the streamed sum is byte-identical to the whole-fetch
#      /results sum and that riotshare_stream_blocks_total went
#      positive on /metrics,
#   3. kill one riotblockd and verify a new query still succeeds and the
#      first query's result streams again bit-identically via degraded
#      reads (degradedReads > 0 in /stats), that /metrics on
#      riotshared parses as Prometheus text exposition with
#      riotshare_shard_degraded_reads_total gone positive, and that the
#      surviving riotblockd's -metrics-addr sidecar serves its own
#      exposition,
#   4. restart the dead server, repair the shard, verify it is healthy,
#   5. restart riotshared against the persisted catalog and verify the
#      shared inputs are served with zero refill writes.
#
# CI runs this after the unit suite; it needs only bash, curl, and the go
# toolchain. Total runtime is a few seconds.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT_BASE=${PORT_BASE:-18441}
HTTP_PORT=${HTTP_PORT:-18377}
BLOCKD_METRICS_PORT=${BLOCKD_METRICS_PORT:-19441}
ADDR="http://127.0.0.1:${HTTP_PORT}"
WORK=$(mktemp -d)
BIN="$WORK/bin"
PIDS=()

CLEANED=0
cleanup() {
    # Idempotent: EXIT fires after an INT/TERM-initiated exit too.
    [ "$CLEANED" = 1 ] && return 0
    CLEANED=1
    # TERM whatever is still running; escalate to KILL for anything that
    # ignores it (a wedged server must not hang CI), then the work dir.
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    for _ in $(seq 1 20); do
        local live=0
        for pid in "${PIDS[@]:-}"; do
            kill -0 "$pid" 2>/dev/null && live=1
        done
        [ "$live" = 0 ] && break
        sleep 0.1
    done
    for pid in "${PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
# Ctrl-C / runner cancellation: clean up, then die by the conventional
# signal exit code. The EXIT trap is a no-op afterwards.
trap 'cleanup; exit 130' INT
trap 'cleanup; exit 143' TERM

fail() { echo "remote_smoke: FAIL: $*" >&2; exit 1; }

# wait_tcp host port — poll until something is listening (or time out).
wait_tcp() {
    for _ in $(seq 1 100); do
        # The fd opens (and closes) inside the subshell; success means
        # something accepted the connection.
        if (exec 3<>"/dev/tcp/$1/$2") 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    return 1
}

echo "== build"
mkdir -p "$BIN"
go build -o "$BIN/riotblockd" ./cmd/riotblockd
go build -o "$BIN/riotshared" ./cmd/riotshared

start_blockd() { # start_blockd <shard index>
    local i=$1 port=$((PORT_BASE + $1))
    local metrics=()
    # Shard 0 (never killed below) carries the /metrics sidecar under test.
    if [ "$i" = 0 ]; then metrics=(-metrics-addr "127.0.0.1:$BLOCKD_METRICS_PORT"); fi
    "$BIN/riotblockd" -addr "127.0.0.1:$port" -root "$WORK/shard-$i" -quiet ${metrics[@]+"${metrics[@]}"} &
    BLOCKD_PID[$i]=$!
    PIDS+=("${BLOCKD_PID[$i]}")
    wait_tcp 127.0.0.1 "$port" || fail "riotblockd $i did not come up on :$port"
}

start_shared() {
    "$BIN/riotshared" serve -addr "127.0.0.1:${HTTP_PORT}" \
        -shard-addrs "$SHARD_ADDRS" -replicas 2 -persist &
    SHARED_PID=$!
    PIDS+=("$SHARED_PID")
    for _ in $(seq 1 100); do
        if curl -sf --max-time 10 "$ADDR/stats" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    fail "riotshared did not come up on :$HTTP_PORT"
}

# submit_query — submit addmul, wait for the result, fail unless it is done.
submit_query() {
    local id state
    id=$("$BIN/riotshared" submit -addr "$ADDR" -prog addmul -mem 1000 |
        sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
    [ -n "$id" ] || fail "submit returned no query id"
    state=$(curl -sf --max-time 10 "$ADDR/results?id=$id&wait=1" |
        sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)
    [ "$state" = "done" ] || fail "query $id finished in state '$state'"
    echo "$id"
}

# stat_field name — extract an integer field from /stats (0 when absent).
stat_field() {
    curl -sf --max-time 10 "$ADDR/stats" | sed -n "s/.*\"$1\": *\([0-9]*\).*/\1/p" | head -1
}

# metrics_get url — fetch a /metrics endpoint, fail unless every line is
# valid Prometheus text exposition, and print the body.
metrics_get() {
    curl -sf --max-time 10 "$1" > "$WORK/metrics.txt" || fail "GET $1 failed"
    grep -vE '^# (HELP|TYPE) ' "$WORK/metrics.txt" |
        grep -qvE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+$' &&
        fail "unparseable Prometheus exposition from $1"
    cat "$WORK/metrics.txt"
}

echo "== boot 4 riotblockd + riotshared (replicas=2, persist)"
declare -a BLOCKD_PID
SHARD_ADDRS=""
for i in 0 1 2 3; do
    start_blockd "$i"
    SHARD_ADDRS="${SHARD_ADDRS:+$SHARD_ADDRS,}127.0.0.1:$((PORT_BASE + i))"
done
start_shared

echo "== query end to end on the healthy fleet"
qid=$(submit_query)

echo "== streamed results must match the whole fetch bit for bit"
whole_sum=$(curl -sf --max-time 10 "$ADDR/results?id=$qid" |
    sed -n 's/.*"sum": *\([^,}]*\).*/\1/p' | head -1)
[ -n "$whole_sum" ] || fail "no output sum in /results for $qid"
stream_sum=$("$BIN/riotshared" results -addr "$ADDR" -id "$qid" -stream |
    sed -n 's/.* blocks, .* bytes, sum \(.*\)$/\1/p' | head -1)
[ -n "$stream_sum" ] || fail "streamed fetch of $qid printed no sum"
[ "$stream_sum" = "$whole_sum" ] ||
    fail "streamed sum '$stream_sum' != whole-fetch sum '$whole_sum'"
metrics_get "$ADDR/metrics" |
    awk '/^riotshare_stream_blocks_total/ {s += $NF} END {exit !(s > 0)}' ||
    fail "expected riotshare_stream_blocks_total > 0 after a stream"
echo "   streamed sum=$stream_sum"

echo "== /metrics on riotshared and the shard-0 riotblockd sidecar"
metrics_get "$ADDR/metrics" | grep -q '^riotshare_query_seconds_count' ||
    fail "riotshared /metrics lacks riotshare_query_seconds after a query"
metrics_get "http://127.0.0.1:${BLOCKD_METRICS_PORT}/metrics" |
    grep -q '^riotblockd_op_seconds_count' ||
    fail "riotblockd /metrics lacks riotblockd_op_seconds after traffic"

echo "== kill shard 1's server; query must survive on degraded reads"
kill "${BLOCKD_PID[1]}"
wait "${BLOCKD_PID[1]}" 2>/dev/null || true
submit_query >/dev/null
# The new query's inputs are pool-resident, so it may read nothing from the
# store. The first query's output frames were retired by its stream, so
# streaming it again reads every output block back from the shards, and
# those whose primary is shard 1 must come from a replica.
restream_sum=$("$BIN/riotshared" results -addr "$ADDR" -id "$qid" -stream |
    sed -n 's/.* blocks, .* bytes, sum \(.*\)$/\1/p' | head -1)
[ "$restream_sum" = "$whole_sum" ] ||
    fail "degraded re-stream sum '$restream_sum' != whole-fetch sum '$whole_sum'"
degraded=$(stat_field degradedReads)
[ -n "$degraded" ] && [ "$degraded" -gt 0 ] ||
    fail "expected degradedReads > 0 after killing shard 1, got '${degraded:-0}'"
curl -sf --max-time 10 "$ADDR/stats" | grep -q '"degraded": *true' ||
    fail "expected a degraded shard in /stats"
metrics_get "$ADDR/metrics" |
    awk '/^riotshare_shard_degraded_reads_total/ {s += $NF} END {exit !(s > 0)}' ||
    fail "expected riotshare_shard_degraded_reads_total > 0 in /metrics"
echo "   degradedReads=$degraded"

echo "== restart the server, repair shard 1, verify healthy"
start_blockd 1
"$BIN/riotshared" repair -addr "$ADDR" -shard 1 || fail "repair failed"
curl -sf --max-time 10 "$ADDR/stats" | grep -q '"degraded": *true' &&
    fail "shard still degraded after repair"
submit_query >/dev/null

echo "== restart riotshared; persisted inputs must skip refills"
kill "$SHARED_PID"
wait "$SHARED_PID" 2>/dev/null || true
start_shared
submit_query >/dev/null
skipped=$(stat_field inputFillsSkipped)
[ -n "$skipped" ] && [ "$skipped" -gt 0 ] ||
    fail "expected inputFillsSkipped > 0 after restart, got '${skipped:-0}'"
echo "   inputFillsSkipped=$skipped"

echo "remote_smoke: PASS"
