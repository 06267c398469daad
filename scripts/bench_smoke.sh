#!/usr/bin/env bash
# Smoke-test the performance gates:
#  - exp14: the observability contract — the fully-instrumented pipeline
#    (stage spans + counters) within 3% of bare wall time on the 10k-row
#    person_scale world, bit-identical output (writes BENCH_observability.json);
#  - exp15: the event-loop serving contract — fused output bit-identical to
#    the blocking server at degrees 1-4, p99 at 128 connections no worse
#    than the blocking baseline's p99 at 8, overload sheds with 503 and
#    keeps serving, and group-commit fsync delta throughput >= 85% of
#    no-fsync (writes BENCH_serving2.json);
#  - exp16: the scatter-gather sharding contract — sharded output
#    bit-identical to the single-shard pipeline across K in {1,2,4,8} x
#    degrees 1-4, balanced work division over two workers, and the
#    worker-kill fault drill (retry + local fallback keep answers
#    byte-identical; writes BENCH_sharding.json);
#  - exp17: the distributed-tracing contract — a cold 2-worker scatter
#    yields ONE stitched trace tree with spans from >= 2 distinct worker
#    nodes and every worker stage span, retry/fallback decisions appear
#    as spans in the same trace, and the instrumented scatter stays
#    within 3% of bare with bit-identical output at degrees 1-4
#    (writes BENCH_disttrace.json).
# The script then sanity-checks all four reports.
set -euo pipefail

OBS_BIN=${OBS_BIN:-./target/release/exp14_observability}
SERVE_BIN=${SERVE_BIN:-./target/release/exp15_serving}
SHARD_BIN=${SHARD_BIN:-./target/release/exp16_sharding}
TRACE_BIN=${TRACE_BIN:-./target/release/exp17_disttrace}

[ -x "$OBS_BIN" ] || { echo "missing $OBS_BIN (build with: cargo build --release -p hummer_bench --bin exp14_observability)"; exit 1; }
[ -x "$SERVE_BIN" ] || { echo "missing $SERVE_BIN (build with: cargo build --release -p hummer_bench --bin exp15_serving)"; exit 1; }
[ -x "$SHARD_BIN" ] || { echo "missing $SHARD_BIN (build with: cargo build --release -p hummer_bench --bin exp16_sharding)"; exit 1; }
[ -x "$TRACE_BIN" ] || { echo "missing $TRACE_BIN (build with: cargo build --release -p hummer_bench --bin exp17_disttrace)"; exit 1; }

"$OBS_BIN"

OBS_REPORT=BENCH_observability.json
[ -f "$OBS_REPORT" ] || { echo "$OBS_REPORT was not written"; exit 1; }
grep -q '"passed": *true' "$OBS_REPORT" \
    || { echo "observability overhead gate not passed:"; cat "$OBS_REPORT"; exit 1; }
grep -q '"identical": *true' "$OBS_REPORT" \
    || { echo "report does not record instrumented/bare identity:"; cat "$OBS_REPORT"; exit 1; }

"$SERVE_BIN"

SERVE_REPORT=BENCH_serving2.json
[ -f "$SERVE_REPORT" ] || { echo "$SERVE_REPORT was not written"; exit 1; }
for gate in identity_degrees_1_4 p99_at_128_conns_le_baseline \
            overload_sheds_and_survives group_commit_ratio_ge_085; do
    grep -q "\"$gate\": *true" "$SERVE_REPORT" \
        || { echo "serving gate $gate not passed:"; cat "$SERVE_REPORT"; exit 1; }
done

"$SHARD_BIN"

SHARD_REPORT=BENCH_sharding.json
[ -f "$SHARD_REPORT" ] || { echo "$SHARD_REPORT was not written"; exit 1; }
if grep -q '"identical": *false' "$SHARD_REPORT"; then
    echo "a sharded run diverged from the single-shard pipeline:"; cat "$SHARD_REPORT"; exit 1
fi
if grep -q '"passed": *false' "$SHARD_REPORT"; then
    echo "a sharding gate failed:"; cat "$SHARD_REPORT"; exit 1
fi
for gate in one_dead_identical all_dead_identical no_fallback_errors; do
    grep -q "\"$gate\": *true" "$SHARD_REPORT" \
        || { echo "fault drill gate $gate not passed:"; cat "$SHARD_REPORT"; exit 1; }
done

"$TRACE_BIN"

TRACE_REPORT=BENCH_disttrace.json
[ -f "$TRACE_REPORT" ] || { echo "$TRACE_REPORT was not written"; exit 1; }
if grep -q '"identical": *false' "$TRACE_REPORT"; then
    echo "a traced run diverged from the bare pipeline:"; cat "$TRACE_REPORT"; exit 1
fi
if grep -q '"passed": *false' "$TRACE_REPORT"; then
    echo "a distributed-tracing gate failed:"; cat "$TRACE_REPORT"; exit 1
fi
for gate in single_root worker_stage_spans coordinator_stage_spans \
            retry_span_in_trace fallback_span_in_trace \
            one_dead_identical all_dead_identical; do
    grep -q "\"$gate\": *true" "$TRACE_REPORT" \
        || { echo "distributed-tracing gate $gate not passed:"; cat "$TRACE_REPORT"; exit 1; }
done

echo "bench smoke test OK ($OBS_REPORT, $SERVE_REPORT, $SHARD_REPORT, $TRACE_REPORT)"
