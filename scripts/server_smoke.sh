#!/usr/bin/env bash
# Smoke-test a release build of hummer-serve: start it on an ephemeral-ish
# port, upload the paper's two student tables, run the paper's FUSE query,
# assert HTTP 200 and the fused row count, scrape the Prometheus /metrics
# exposition and a per-request /trace/{id} span tree, then shut down
# gracefully. A second section exercises durability: --data-dir, kill -9,
# restart on the same directory, byte-identical fusion result, recovery
# stats on the Prometheus exposition (linted too). A third section
# exercises the event loop at depth: a 128-connection mixed burst through
# loadgen, then kill -9 while concurrent deltas are inside a widened
# group-commit window — the restart must serve byte-identical fusion output.
set -euo pipefail

BIN=${BIN:-./target/release/hummer-serve}
LOADGEN_BIN=${LOADGEN_BIN:-./target/release/loadgen}
PROMLINT_BIN=${PROMLINT_BIN:-./target/release/promlint}
PORT=${PORT:-$((20000 + RANDOM % 20000))}
ADDR="127.0.0.1:${PORT}"
DATA_DIR=$(mktemp -d)

# One unlabeled sample off a server's /metrics, e.g. `metric ADDR hummer_deltas_applied_total`.
metric() {
    curl -sf "http://$1/metrics" | awk -v name="$2" '$1 == name {print $2}'
}

"$BIN" --addr "$ADDR" --threads 2 --narrow-schemas &
SERVER_PID=$!
trap 'kill -9 "$SERVER_PID" 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT

# Wait for the listener.
for _ in $(seq 1 50); do
    if curl -sf "http://${ADDR}/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -sf "http://${ADDR}/healthz" >/dev/null

# Upload the paper's example tables (must both answer 200).
code=$(curl -s -o /tmp/put1.json -w '%{http_code}' -X PUT "http://${ADDR}/tables/EE_Student" \
    --data-binary $'Name,Age,City\nJohn Smith,24,Berlin\nMary Jones,22,Hamburg\nPeter Miller,27,Munich\n')
[ "$code" = 200 ] || { echo "PUT EE_Student -> $code"; cat /tmp/put1.json; exit 1; }
code=$(curl -s -o /tmp/put2.json -w '%{http_code}' -X PUT "http://${ADDR}/tables/CS_Students" \
    --data-binary $'FullName,Years,Town\nJohn Smith,25,Berlin\nMary Jones,22,Hamburg\nAda Lovelace,28,London\n')
[ "$code" = 200 ] || { echo "PUT CS_Students -> $code"; cat /tmp/put2.json; exit 1; }

# The paper's query: 6 heterogeneous rows fuse into 4 students.
code=$(curl -s -o /tmp/query.json -w '%{http_code}' -X POST "http://${ADDR}/query" \
    -d 'SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)')
[ "$code" = 200 ] || { echo "POST /query -> $code"; cat /tmp/query.json; exit 1; }
grep -q '"row_count":4' /tmp/query.json || { echo "unexpected fusion result:"; cat /tmp/query.json; exit 1; }

# Unknown tables must 404.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://${ADDR}/query" -d 'SELECT * FROM Ghosts')
[ "$code" = 404 ] || { echo "expected 404 for unknown table, got $code"; exit 1; }

# Bodies nested deeper than a worker's stack can follow get a 400, and the
# server keeps serving: 5,000 parentheses and a 100,000-term chain of SQL,
# 10,000 JSON brackets on /query and on a delta.
repeat() { printf "%.0s$1" $(seq 1 "$2"); }
{ printf 'SELECT Name FROM EE_Student WHERE '; repeat '(' 5000; printf 1; repeat ')' 5000; printf ' = 1'; } \
    > /tmp/deep_parens.sql
{ printf 'SELECT Name FROM EE_Student WHERE 1'; repeat '+1' 100000; printf ' = 1'; } > /tmp/deep_chain.sql
{ printf '{"sql": '; repeat '[' 10000; repeat ']' 10000; printf '}'; } > /tmp/deep_query.json
{ printf '{"insert": '; repeat '[' 10000; repeat ']' 10000; printf '}'; } > /tmp/deep_delta.json
for deep in "/query text/plain deep_parens.sql" "/query text/plain deep_chain.sql" \
    "/query application/json deep_query.json" "/tables/CS_Students/delta application/json deep_delta.json"; do
    read -r path type file <<< "$deep"
    code=$(curl -s -o /tmp/deep_answer.json -w '%{http_code}' -X POST "http://${ADDR}${path}" \
        -H "content-type: ${type}" --data-binary "@/tmp/${file}")
    [ "$code" = 400 ] || { echo "POST ${path} with ${file} -> $code"; cat /tmp/deep_answer.json; exit 1; }
    curl -sf "http://${ADDR}/healthz" >/dev/null \
        || { echo "the server stopped serving after ${file} on ${path}"; exit 1; }
done

# At exactly 64 levels (hummer_query's MAX_EXPR_DEPTH) each shape is served:
# a worker parses, evaluates and drops the deepest tree the cap admits. Each
# ends in a comparison of a leaf (two levels) under 62 levels of its shape.
for shape in "$(repeat '(' 62)1$(repeat ')' 62)" "1$(repeat ' + 1' 62)" \
    "$(repeat 'NOT ' 62)Age" "$(repeat 'abs(' 62)Age$(repeat ')' 62)"; do
    code=$(curl -s -o /tmp/cap_answer.json -w '%{http_code}' -X POST "http://${ADDR}/query" \
        --data-binary "SELECT Name FROM EE_Student WHERE ${shape} = 1")
    [ "$code" = 200 ] || { echo "POST /query at the depth cap (${shape:0:24}…) -> $code"; cat /tmp/cap_answer.json; exit 1; }
done

# Delta ingestion: insert a fifth student, which must *upgrade* the cached
# prepared pipeline (not invalidate it) — the re-query reflects the insert
# AND reports a cache hit, i.e. no cold re-prepare.
code=$(curl -s -o /tmp/delta.json -w '%{http_code}' -X POST "http://${ADDR}/tables/CS_Students/delta" \
    -H 'content-type: application/json' \
    -d '{"insert": [["Grace Hopper", "37", "Arlington"]]}')
[ "$code" = 200 ] || { echo "POST delta -> $code"; cat /tmp/delta.json; exit 1; }
grep -q '"upgraded":1' /tmp/delta.json || { echo "delta did not upgrade the cache:"; cat /tmp/delta.json; exit 1; }

code=$(curl -s -o /tmp/query2.json -w '%{http_code}' -X POST "http://${ADDR}/query" \
    -d 'SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)')
[ "$code" = 200 ] || { echo "POST /query after delta -> $code"; cat /tmp/query2.json; exit 1; }
grep -q '"row_count":5' /tmp/query2.json || { echo "delta not reflected:"; cat /tmp/query2.json; exit 1; }
grep -q '"cache":"hit"' /tmp/query2.json || { echo "expected an upgraded-cache hit:"; cat /tmp/query2.json; exit 1; }

# Delta counters are visible on /metrics.
[ "$(metric "$ADDR" hummer_prepared_cache_upgrades_total)" = 1 ] \
    || { echo "delta counters missing from /metrics"; exit 1; }

# /metrics is Prometheus text: after the query and the delta above, the
# stage histograms and the delta counters must be present.
curl -sf "http://${ADDR}/metrics" -o /tmp/prom.txt
for want in \
    '# TYPE hummer_stage_seconds histogram' \
    'hummer_stage_seconds_bucket{stage="detect"' \
    'hummer_stage_seconds_bucket{stage="fuse"' \
    'hummer_request_seconds_bucket{endpoint="POST /query"' \
    'hummer_prepared_cache_misses_total 1' \
    'hummer_deltas_applied_total 1' \
    'hummer_trace_spans'
do
    grep -qF "$want" /tmp/prom.txt \
        || { echo "Prometheus exposition missing: $want"; cat /tmp/prom.txt; exit 1; }
done

# Lint the live scrape: HELP/TYPE present for every family, labels escaped,
# le ladders monotone and +Inf-terminated, exemplar syntax well-formed.
[ -x "$PROMLINT_BIN" ] \
    || { echo "missing $PROMLINT_BIN (build with: cargo build --release -p hummer_server --bin promlint)"; exit 1; }
"$PROMLINT_BIN" /tmp/prom.txt \
    || { echo "promlint rejected the live /metrics scrape"; exit 1; }

# Exemplars link histogram buckets to fetchable traces: any trace id the
# exposition references must be served by GET /trace/{id} end to end.
exemplar=$(grep -o 'trace_id="[0-9a-f]\{16\}"' /tmp/prom.txt | head -1 | cut -d'"' -f2)
[ -n "$exemplar" ] || { echo "no histogram exemplars on /metrics"; cat /tmp/prom.txt; exit 1; }
curl -sf "http://${ADDR}/trace/${exemplar}" -o /tmp/exemplar_trace.json \
    || { echo "GET /trace/${exemplar} (from an exemplar) failed"; exit 1; }
grep -q "\"trace\":\"${exemplar}\"" /tmp/exemplar_trace.json \
    || { echo "exemplar trace tree mismatch:"; cat /tmp/exemplar_trace.json; exit 1; }

# Every response carries X-Hummer-Trace; its span tree is served on
# /trace/{id} and covers the whole request (root named after the endpoint).
trace=$(curl -s -D - -o /dev/null -X POST "http://${ADDR}/query" \
    -d 'SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)' \
    | tr -d '\r' | awk 'tolower($1) == "x-hummer-trace:" {print $2}')
[ -n "$trace" ] || { echo "response missing X-Hummer-Trace header"; exit 1; }
curl -sf "http://${ADDR}/trace/${trace}" -o /tmp/trace.json \
    || { echo "GET /trace/${trace} failed"; exit 1; }
grep -q '"POST /query"' /tmp/trace.json \
    || { echo "trace tree missing request root:"; cat /tmp/trace.json; exit 1; }
grep -q '"serialize"' /tmp/trace.json \
    || { echo "trace tree missing serialize span:"; cat /tmp/trace.json; exit 1; }

# Repeated one-row updates carry each cached entry's delta index (match and
# detection): three updates to one table build at most one index per cache
# entry (here none — the insert above already built it).
index_builds() {
    metric "$ADDR" hummer_delta_index_builds_total
}
builds_before=$(index_builds)
entries=$(metric "$ADDR" hummer_prepared_cache_entries)
[ -n "$builds_before" ] && [ -n "$entries" ] \
    || { echo "index-build counter or cache entry count missing"; exit 1; }
for age in 26 27 28; do
    curl -sf -X POST "http://${ADDR}/tables/CS_Students/delta" \
        -H 'content-type: application/json' \
        -d "{\"update\": [{\"row\": 0, \"values\": [\"John Smith\", ${age}, \"Berlin\"]}]}" \
        -D /tmp/update_headers.txt -o /tmp/update.json || { echo "POST update delta failed"; exit 1; }
    grep -q '"upgraded":1' /tmp/update.json || { echo "update did not upgrade:"; cat /tmp/update.json; exit 1; }
done
builds_after=$(index_builds)
[ $((builds_after - builds_before)) -le "$entries" ] \
    || { echo "3 updates built $((builds_after - builds_before)) indexes for $entries cache entries"; exit 1; }
# The last update's trace: its match and detect spans carried their indexes,
# and detection rendered the one updated row again.
delta_trace=$(tr -d '\r' < /tmp/update_headers.txt | awk 'tolower($1) == "x-hummer-trace:" {print $2}')
[ -n "$delta_trace" ] || { echo "delta response missing X-Hummer-Trace header"; exit 1; }
curl -sf "http://${ADDR}/trace/${delta_trace}" -o /tmp/delta_trace.json \
    || { echo "GET /trace/${delta_trace} failed"; exit 1; }
grep -q '"name":"match","start_us":[0-9]*,"duration_us":[0-9]*,"counters":{[^}]*"index_reused":1' /tmp/delta_trace.json \
    || { echo "the update's match span did not reuse its index:"; cat /tmp/delta_trace.json; exit 1; }
for counter in '"index_reused":1' '"rows_rerendered":1'; do
    grep -q '"name":"detect","start_us":[0-9]*,"duration_us":[0-9]*,"counters":{[^}]*'"${counter}"'[,}]' /tmp/delta_trace.json \
        || { echo "the update's detect span lacks ${counter}:"; cat /tmp/delta_trace.json; exit 1; }
done

# Graceful shutdown: the endpoint answers, then the process exits 0.
curl -sf -X POST "http://${ADDR}/shutdown" >/dev/null
wait "$SERVER_PID"

# --- Durability: kill -9, restart on the same --data-dir --------------------

wait_healthy() {
    for _ in $(seq 1 50); do
        if curl -sf "http://$1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    curl -sf "http://$1/healthz" >/dev/null
}

# The query response minus the (run-dependent) timing fields: everything up
# to "row_count", i.e. exactly the fused result table. Our JSON writer emits
# keys in a fixed order, so equal strings == byte-identical results.
result_of() { sed 's/,"cache".*//' "$1"; }

PORT2=$((PORT + 1))
ADDR2="127.0.0.1:${PORT2}"
"$BIN" --addr "$ADDR2" --threads 2 --narrow-schemas --data-dir "$DATA_DIR" &
SERVER_PID=$!
wait_healthy "$ADDR2"

curl -sf -X PUT "http://${ADDR2}/tables/EE_Student" \
    --data-binary $'Name,Age,City\nJohn Smith,24,Berlin\nMary Jones,22,Hamburg\nPeter Miller,27,Munich\n' >/dev/null
curl -sf -X PUT "http://${ADDR2}/tables/CS_Students" \
    --data-binary $'FullName,Years,Town\nJohn Smith,25,Berlin\nMary Jones,22,Hamburg\nAda Lovelace,28,London\n' >/dev/null
# A delta that must survive the crash (acked => durable).
curl -sf -X POST "http://${ADDR2}/tables/CS_Students/delta" \
    -H 'content-type: application/json' \
    -d '{"insert": [["Grace Hopper", "37", "Arlington"]]}' >/dev/null
curl -sf -X POST "http://${ADDR2}/query" \
    -d 'SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)' \
    -o /tmp/durable_before.json
grep -q '"row_count":5' /tmp/durable_before.json \
    || { echo "pre-crash fusion wrong:"; cat /tmp/durable_before.json; exit 1; }

# Crash hard; no graceful shutdown, no flush hook.
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

# Restart on the same directory — at a different intra-query parallelism
# degree, which must not change a single output byte.
PORT3=$((PORT + 2))
ADDR3="127.0.0.1:${PORT3}"
"$BIN" --addr "$ADDR3" --threads 2 --par 2 --narrow-schemas --data-dir "$DATA_DIR" &
SERVER_PID=$!
wait_healthy "$ADDR3"

curl -sf -X POST "http://${ADDR3}/query" \
    -d 'SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)' \
    -o /tmp/durable_after.json
if [ "$(result_of /tmp/durable_before.json)" != "$(result_of /tmp/durable_after.json)" ]; then
    echo "recovered fusion result differs from pre-crash:"
    diff <(result_of /tmp/durable_before.json) <(result_of /tmp/durable_after.json) || true
    exit 1
fi

# Recovery is visible on /metrics (wal_records covers 2 registers + 1
# delta), fsync reads as on, and the durable exposition lints as well.
curl -sf "http://${ADDR3}/metrics" -o /tmp/durable_prom.txt
for want in \
    'hummer_store_wal_records 3' \
    'hummer_store_fsync_enabled 1' \
    'hummer_store_recovery_seconds '
do
    grep -qF "$want" /tmp/durable_prom.txt \
        || { echo "Prometheus exposition missing: $want"; cat /tmp/durable_prom.txt; exit 1; }
done
"$PROMLINT_BIN" /tmp/durable_prom.txt \
    || { echo "promlint rejected the durable server's /metrics scrape"; exit 1; }

# DELETE is durable too: deregister, restart, still gone. The one cached
# pipeline named the deleted table, so it leaves the cache with it.
[ "$(metric "$ADDR3" hummer_prepared_cache_entries)" = 1 ] \
    || { echo "expected the recovered query's pipeline in the cache"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://${ADDR3}/tables/EE_Student")
[ "$code" = 200 ] || { echo "DELETE /tables/EE_Student -> $code"; exit 1; }
[ "$(metric "$ADDR3" hummer_prepared_cache_entries)" = 0 ] \
    || { echo "DELETE left a pipeline over the deleted table in the cache"; exit 1; }
curl -sf -X POST "http://${ADDR3}/shutdown" >/dev/null
wait "$SERVER_PID"

PORT4=$((PORT + 3))
ADDR4="127.0.0.1:${PORT4}"
"$BIN" --addr "$ADDR4" --threads 2 --narrow-schemas --data-dir "$DATA_DIR" &
SERVER_PID=$!
wait_healthy "$ADDR4"
curl -sf "http://${ADDR4}/tables" | grep -vq 'EE_Student' \
    || { echo "deregistered table came back after restart"; exit 1; }
curl -sf -X POST "http://${ADDR4}/shutdown" >/dev/null
wait "$SERVER_PID"

# --- Event loop: 128-connection burst, kill -9 mid group-commit window ------

[ -x "$LOADGEN_BIN" ] \
    || { echo "missing $LOADGEN_BIN (build with: cargo build --release -p hummer_server --bin loadgen)"; exit 1; }

# A mixed read/write burst at event-loop scale: 128 concurrent connections,
# one in eight requests a delta update. loadgen exits nonzero on any
# request error, so success means the nonblocking path served the whole
# burst without dropping or corrupting a response.
PORT5=$((PORT + 4))
ADDR5="127.0.0.1:${PORT5}"
"$BIN" --addr "$ADDR5" --threads 2 --narrow-schemas &
SERVER_PID=$!
wait_healthy "$ADDR5"
"$LOADGEN_BIN" --addr "$ADDR5" --connections 128 --requests 640 \
    --worlds 2 --entities 30 --update-ratio 0.125 >/tmp/burst.txt \
    || { echo "128-connection burst failed:"; cat /tmp/burst.txt; exit 1; }
grep -q '^requests_err     0$' /tmp/burst.txt \
    || { echo "burst reported request errors:"; cat /tmp/burst.txt; exit 1; }
curl -sf -X POST "http://${ADDR5}/shutdown" >/dev/null
wait "$SERVER_PID"

# Crash inside a group-commit window. The server runs with a widened
# (5 ms) window so concurrent deltas batch into shared fsyncs; the deltas
# only flap EE_Student's John Smith between two ages that both lose the
# RESOLVE(Age, max) against CS_Students' 25, so whatever acked prefix of
# the torn batch survives the kill -9, the fused output is byte-identical.
DATA_DIR2=$(mktemp -d)
trap 'kill -9 "$SERVER_PID" 2>/dev/null || true; rm -rf "$DATA_DIR" "$DATA_DIR2"' EXIT
PORT6=$((PORT + 5))
ADDR6="127.0.0.1:${PORT6}"
"$BIN" --addr "$ADDR6" --threads 2 --narrow-schemas \
    --data-dir "$DATA_DIR2" --group-commit-window-us 5000 &
SERVER_PID=$!
wait_healthy "$ADDR6"

curl -sf -X PUT "http://${ADDR6}/tables/EE_Student" \
    --data-binary $'Name,Age,City\nJohn Smith,24,Berlin\nMary Jones,22,Hamburg\nPeter Miller,27,Munich\n' >/dev/null
curl -sf -X PUT "http://${ADDR6}/tables/CS_Students" \
    --data-binary $'FullName,Years,Town\nJohn Smith,25,Berlin\nMary Jones,22,Hamburg\nAda Lovelace,28,London\n' >/dev/null
curl -sf -X POST "http://${ADDR6}/query" \
    -d 'SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)' \
    -o /tmp/gc_before.json
grep -q '"row_count":4' /tmp/gc_before.json \
    || { echo "pre-crash fusion wrong:"; cat /tmp/gc_before.json; exit 1; }

# 64 concurrent fusion-invariant deltas, then kill -9 while they are still
# queueing into the 5 ms group-commit window.
for i in $(seq 1 64); do
    age=$((20 + (i % 2) * 4))
    curl -s -o /dev/null -X POST "http://${ADDR6}/tables/EE_Student/delta" \
        -H 'content-type: application/json' \
        -d "{\"update\": [{\"row\": 0, \"values\": [\"John Smith\", \"${age}\", \"Berlin\"]}]}" &
done
sleep 0.05
kill -9 "$SERVER_PID"
wait 2>/dev/null || true

# Restart on the same directory: recovery drops at most a torn tail, keeps
# every acked delta, and the fused result is byte-identical.
PORT7=$((PORT + 6))
ADDR7="127.0.0.1:${PORT7}"
"$BIN" --addr "$ADDR7" --threads 2 --narrow-schemas --data-dir "$DATA_DIR2" &
SERVER_PID=$!
wait_healthy "$ADDR7"
curl -sf -X POST "http://${ADDR7}/query" \
    -d 'SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)' \
    -o /tmp/gc_after.json
if [ "$(result_of /tmp/gc_before.json)" != "$(result_of /tmp/gc_after.json)" ]; then
    echo "fusion result differs after group-commit crash recovery:"
    diff <(result_of /tmp/gc_before.json) <(result_of /tmp/gc_after.json) || true
    exit 1
fi
curl -sf -X POST "http://${ADDR7}/shutdown" >/dev/null
wait "$SERVER_PID"

trap - EXIT
rm -rf "$DATA_DIR" "$DATA_DIR2"
echo "server smoke test OK (addr ${ADDR}, durable restart on ${ADDR3}, group-commit crash on ${ADDR7})"
