#!/usr/bin/env bash
# End-to-end smoke of the release aqp-cli binary. The TPC-H and SALES
# files it writes are pinned by SHA-256. On a TPC-H view: a traced
# workload with its metric export and trace validation, explain (static
# and --analyze) and the calibration dashboard. On a SALES view,
# three live servers: a forced shed and a forced timeout, a cache cycle
# (warm, hit, invalidate, LRU eviction), and trace ids with the flight
# recorder, the SLO watchdog and the shadow auditor.
#
# Usage, from anywhere, after `cargo build --release -p aqp-cli`:
#
#   scripts/cli_smoke.sh [FAULTS]
#
# FAULTS is what `serve --faults` gets on the two servers that force a
# timeout (default exec-stall@0: the first execution blocks until its
# deadline trips). A bad spec makes `serve` exit non-zero, and the script
# with it. Exit status 0 means every step and every check passed.
set -euo pipefail

FAULTS=${1:-exec-stall@0}
cd "$(dirname "$0")/.."
CLI=$PWD/target/release/aqp-cli
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT
cd "$WORK"

# Fail unless file $1 has SHA-256 $2. The pins were recorded from the
# build before sample tables shared their view's dictionaries: what
# `generate` and `preprocess` write must not drift unless a change says so.
pin() {
  echo "$2  $1" | sha256sum --check --quiet || { echo "$1: bytes drifted from the pin"; exit 1; }
}

# Wait until the server with pid $1 answers a ping on $2; fail if it exits.
wait_for_server() {
  for _ in $(seq 300); do
    if ! kill -0 "$1" 2>/dev/null; then
      wait "$1" || echo "serve exited with status $?"
      return 1
    fi
    "$CLI" client --addr "$2" --attempts 1 ping >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "no server answered on $2"
  return 1
}

echo "== TPC-H 0.05: traced workload, prune counters, trace schema"
"$CLI" generate tpch --scale 0.05 --out tpch.aqpt
"$CLI" preprocess --view tpch.aqpt --rate 0.05 --out tpch.aqps
pin tpch.aqpt 6899fe77a0e50f3c97235f5a8bf05ff09a4686a660682a087e306b8c9ce527d3
pin tpch.aqps 1a63f1f59c85f361ca2dfcad2af130fb340012f5a6d2ba5aa7fea8b008b2bf4a
"$CLI" workload --family tpch.aqps --view tpch.aqpt --queries 10 --threads 4 --trace --obs-out OBS
"$CLI" validate-trace OBS_traces.jsonl
# Only trace schema version 3 decodes: a schema_version 2 line must fail.
head -n 1 OBS_traces.jsonl | sed 's/"schema_version":3/"schema_version":2/' > v2_trace.jsonl
grep -q '"schema_version":2' v2_trace.jsonl
if "$CLI" validate-trace v2_trace.jsonl; then
  echo "validate-trace accepted a schema_version 2 line"
  exit 1
fi
grep -q 'aqp_prune_blocks_total{outcome="skip"}' OBS_metrics.prom
grep -q 'aqp_prune_blocks_total{outcome="scan"}' OBS_metrics.prom
grep -q 'aqp_stage_seconds{stage="query.scan",quantile="0.99"}' OBS_metrics.prom
grep -q 'aqp_serving_tier_total' OBS_metrics.prom
grep -q 'aqp_rows_scanned_total' OBS_metrics.prom
head -c 400 OBS_report.json; echo

echo "== TPC-H 0.05: explain, explain --analyze, calibration dashboard"
SHIPMODE='SELECT lineitem.shipmode, COUNT(*) FROM v GROUP BY lineitem.shipmode'
"$CLI" explain --family tpch.aqps "$SHIPMODE"
"$CLI" explain --family tpch.aqps --analyze --threads 4 "$SHIPMODE" | tee analyze.txt
grep -q -- '-> reconciles' analyze.txt
"$CLI" workload --family tpch.aqps --view tpch.aqpt --queries 10 --threads 4 --trace --calibrate \
  --obs-out CAL
"$CLI" dashboard CAL
grep -q 'id="explain"' CAL_dashboard.html
grep -q 'id="calibration"' CAL_dashboard.html
grep -q 'id="tiers"' CAL_dashboard.html
grep -q 'id="stages"' CAL_dashboard.html

"$CLI" generate sales --rows 20000 --out sales.aqpt
"$CLI" preprocess --view sales.aqpt --rate 0.05 --out sales.aqps
pin sales.aqpt a3463335f89b33defb16f15753063a33787777933d8017d1c7f2a64fd0469d6c
pin sales.aqps a0f462645e96693d7e063b28545fcdabcc893a43ddbdaf7c6b305b10ddee05cf

echo "== serve: one forced shed, one forced timeout (--faults $FAULTS)"
ADDR=127.0.0.1:7979
SQL='SELECT store.region, COUNT(*) AS cnt FROM v GROUP BY store.region'
# Cache off: with it on, the shed probe (the same plan) would wait on the
# stalled leader's flight instead of meeting the full admission queue.
"$CLI" serve --family sales.aqps --view sales.aqpt --addr $ADDR \
  --interactive-inflight 1 --interactive-queue 0 --faults "$FAULTS" \
  --cache-capacity 0 --metrics-out serve_metrics.prom &
SERVER=$!
wait_for_server $SERVER $ADDR
# Forced timeout: this query stalls in execution until its 2s deadline
# reaps it, holding the only inflight slot meanwhile.
"$CLI" client --addr $ADDR --deadline-ms 2000 --attempts 1 "$SQL" > stalled.out 2>&1 &
STALLED=$!
sleep 1
# Forced shed: inflight full, queue bounded at 0, no retry.
if "$CLI" client --addr $ADDR --attempts 1 "$SQL" > shed.out 2>&1; then
  echo "expected the overload request to be shed"; exit 1
fi
grep -qi shed shed.out
if wait $STALLED; then
  echo "expected the stalled request to time out"; exit 1
fi
grep -qi timeout stalled.out
# The server answers normally once the stall has cleared.
"$CLI" client --addr $ADDR "$SQL"
# Graceful shutdown: drain completes and the server exits 0.
"$CLI" client --addr $ADDR shutdown
wait $SERVER
grep 'aqp_server_shed_total' serve_metrics.prom
grep 'aqp_server_timeout_total' serve_metrics.prom
grep 'aqp_server_requests_total' serve_metrics.prom
grep 'aqp_fault_injected_total{kind="exec-stall"}' serve_metrics.prom

echo "== serve: cache warm, hit, invalidate, forced LRU eviction"
ADDR=127.0.0.1:7980
Q1='SELECT store.region, COUNT(*) AS cnt FROM v GROUP BY store.region'
Q2='SELECT product.category, COUNT(*) AS cnt FROM v GROUP BY product.category'
Q3='SELECT customer.segment, COUNT(*) AS cnt FROM v GROUP BY customer.segment'
# Tiny capacity so the third distinct plan forces an LRU eviction.
"$CLI" serve --family sales.aqps --view sales.aqpt --addr $ADDR --cache-capacity 2 \
  --metrics-out cache_metrics.prom &
SERVER=$!
wait_for_server $SERVER $ADDR
# Cold miss, then a warm hit on the same plan (modulo aliasing).
"$CLI" client --addr $ADDR "$Q1" | tee q1_cold.out
if grep -q 'cache-hit' q1_cold.out; then
  echo "first request must be a cold miss"; exit 1
fi
"$CLI" client --addr $ADDR "SELECT store.region, COUNT(*) AS other FROM v GROUP BY store.region" \
  | tee q1_warm.out
grep -q 'cache-hit' q1_warm.out
# Explicit invalidation drops the entry: the same plan misses.
"$CLI" client --addr $ADDR invalidate | tee inv.out
grep -q 'cache invalidated' inv.out
"$CLI" client --addr $ADDR "$Q1" | tee q1_post.out
if grep -q 'cache-hit' q1_post.out; then
  echo "post-invalidate request must miss"; exit 1
fi
# Three distinct plans at capacity 2: the coldest is evicted.
"$CLI" client --addr $ADDR "$Q2" > /dev/null
"$CLI" client --addr $ADDR "$Q3" > /dev/null
"$CLI" client --addr $ADDR --max-rel-error 0.5 "$Q2" > /dev/null
"$CLI" client --addr $ADDR shutdown
wait $SERVER
grep 'aqp_cache_hit_total' cache_metrics.prom
grep 'aqp_cache_miss_total' cache_metrics.prom
grep 'aqp_cache_insert_total' cache_metrics.prom
grep 'aqp_cache_evict_total{reason="lru"}' cache_metrics.prom

echo "== serve: trace ids, anomaly dump, SLO and shadow metrics (--faults $FAULTS)"
"$CLI" preprocess --view sales.aqpt --rate 0.2 --out sales20.aqps
ADDR=127.0.0.1:7981
SQL='SELECT store.region, COUNT(*) AS cnt, SUM(sales.revenue) AS rev FROM v GROUP BY store.region'
"$CLI" serve --family sales20.aqps --view sales.aqpt --addr $ADDR \
  --interactive-inflight 1 --interactive-queue 0 --faults "$FAULTS" \
  --cache-capacity 0 --shadow-rate 1.0 \
  --flight-dump flight.jsonl --metrics-out obs_metrics.prom &
SERVER=$!
wait_for_server $SERVER $ADDR
# Forced timeout: stalls in execution until the 2s deadline reaps it;
# the timeout is an anomaly, so the flight ring is dumped with the
# client-supplied trace id in it.
"$CLI" client --addr $ADDR --deadline-ms 2000 --attempts 1 --trace-id tid-ci-stall "$SQL" \
  > stalled.out 2>&1 &
STALLED=$!
sleep 1
# Forced shed while the stall holds the only inflight slot: also an
# anomaly, also trace-stamped into the dump.
if "$CLI" client --addr $ADDR --attempts 1 --trace-id tid-ci-shed "$SQL" > shed.out 2>&1; then
  echo "expected the overload request to be shed"; exit 1
fi
grep -qi shed shed.out
if wait $STALLED; then
  echo "expected the stalled request to time out"; exit 1
fi
grep -qi timeout stalled.out
grep -q tid-ci-stall stalled.out
sleep 1
grep -q '"trace_id":"tid-ci-stall"' flight.jsonl
grep -q '"outcome":"timeout"' flight.jsonl
grep -q '"trace_id":"tid-ci-shed"' flight.jsonl
# Healthy query: the explicit trace id round-trips to the answer frame,
# and --stats prints the client retry summary.
"$CLI" client --addr $ADDR --trace-id tid-ci-ok --stats "$SQL" | tee ok.out
grep -q 'trace tid-ci-ok' ok.out
grep -q 'client: requests=' ok.out
# The dump verb returns the live ring; top renders the SLO windows from
# the stats verb.
"$CLI" client --addr $ADDR dump > dump.out
grep -q tid-ci-ok dump.out
"$CLI" top --addr $ADDR --iterations 1 | tee top.out
grep -q 'interactive' top.out
"$CLI" client --addr $ADDR shutdown
wait $SERVER
# SLO windows and shadow-audit results surface in Prometheus.
grep 'aqp_slo_availability_permille' obs_metrics.prom
grep 'aqp_slo_p99_micros' obs_metrics.prom
grep 'aqp_slo_in_breach' obs_metrics.prom
grep 'aqp_shadow_queries_total' obs_metrics.prom
grep 'aqp_shadow_within_ci_total' obs_metrics.prom

echo "cli smoke: all checks passed"
