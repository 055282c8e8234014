#!/usr/bin/env bash
# End-to-end smoke of the release aqp-cli binary. The TPC-H and SALES
# files it writes are pinned by SHA-256. On a TPC-H view: a traced
# workload with its metric export and trace validation, explain (static
# and --analyze) and the calibration dashboard. On a SALES view,
# three live servers: a forced shed and a forced timeout, a cache cycle
# (warm, hit, invalidate, LRU eviction), and trace ids with the flight
# recorder, `aqp top` and the shadow auditor.
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

# Fail unless file $1 has SHA-256 $2. The pins move only when a change
# means to change the view's or the family's bytes; they were last moved
# when the view stopped copying each dimension's primary key beside the
# fact's foreign key (one column and one small-group table per join key).
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
pin tpch.aqpt 108e6400286a54407410cf67314d723381b9bfe0e3bdffe05a0862ffa1bb1657
pin tpch.aqps 27b613170978ea12fdbd70e9593fc33f5f90c93cb766e100c0305fee1f22ea0e
"$CLI" workload --family tpch.aqps --view tpch.aqpt --queries 10 --threads 4 --trace --obs-out OBS
"$CLI" validate-trace OBS_traces.jsonl
# Only record schema version 4 decodes: a schema_version 3 line must fail.
head -n 1 OBS_traces.jsonl | sed 's/"schema_version":4/"schema_version":3/' > v3_trace.jsonl
grep -q '"schema_version":3' v3_trace.jsonl
if "$CLI" validate-trace v3_trace.jsonl; then
  echo "validate-trace accepted a schema_version 3 line"
  exit 1
fi
grep -q 'aqp_prune_blocks_total{outcome="skip"}' OBS_metrics.prom
grep -q 'aqp_prune_blocks_total{outcome="scan"}' OBS_metrics.prom
grep -q 'aqp_stage_seconds{stage="query.scan",quantile="0.99"}' OBS_metrics.prom
# Check samples, not family names: a bare name also matches the family's
# `# TYPE` line, which is there before anything is counted. The workload's
# 10 queries are all served at the primary tier of a healthy family; the
# rows they scan depend on the plans, so that total only has to be counted.
grep -qx 'aqp_serving_tier_total{tier="primary"} 10' OBS_metrics.prom
grep -qE '^aqp_rows_scanned_total [1-9][0-9]*$' OBS_metrics.prom
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
grep -q '<h3>Per sampled rows n</h3>' CAL_dashboard.html
grep -q 'id="tiers"' CAL_dashboard.html
grep -q 'id="stages"' CAL_dashboard.html

"$CLI" generate sales --rows 20000 --out sales.aqpt
"$CLI" preprocess --view sales.aqpt --rate 0.05 --out sales.aqps
pin sales.aqpt 6f8346670791725587fb2e857fc4cd62069550f9bfed56beba2daf243d407e11
pin sales.aqps 7414ea6dea2b4ef0acd869208451c7e56459165a13a43696e8969c9e29cfff73

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
grep -x 'aqp_server_requests_total{class="interactive",outcome="shed"} 1' serve_metrics.prom
grep -x 'aqp_server_requests_total{class="interactive",outcome="timeout"} 1' serve_metrics.prom
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
# The traffic above fixes every count: one hit (the aliased Q1); five
# misses, each inserting (Q1 cold and after the invalidate, Q2, Q3, and Q2
# under --max-rel-error 0.5); one invalidation; one LRU eviction (Q3 at
# capacity 2).
grep -x 'aqp_cache_hit_total 1' cache_metrics.prom
grep -x 'aqp_cache_miss_total 5' cache_metrics.prom
grep -x 'aqp_cache_insert_total 5' cache_metrics.prom
grep -x 'aqp_cache_evict_total{reason="invalidate"} 1' cache_metrics.prom
grep -x 'aqp_cache_evict_total{reason="lru"} 1' cache_metrics.prom

echo "== serve: trace ids, anomaly dump, top and shadow metrics (--faults $FAULTS)"
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
# The dump verb returns the live ring. top polls the stats verb twice;
# of the three interactive queries one timed out, one was shed and one
# was answered, so its row since the server started reads 3 requests at
# 33.3 % availability.
"$CLI" client --addr $ADDR dump > dump.out
grep -q tid-ci-ok dump.out
# The live dump is the same record form --trace writes, and the answered
# query's record carries the plan that answered it.
"$CLI" validate-trace dump.out
grep '"trace_id":"tid-ci-ok"' dump.out | grep -q '"plan":"union-all('
"$CLI" top --addr $ADDR --iterations 2 --interval-ms 200 | tee top.out
grep -Eq '^interactive +start +3 +33\.3 ' top.out
"$CLI" client --addr $ADDR shutdown
wait $SERVER
# The same three outcomes in Prometheus, and the shadow auditor (drained
# at shutdown) audited the answered query. How many of its cells fell
# within their intervals depends on the sample, so that only has to be a
# sample.
grep -x 'aqp_server_requests_total{class="interactive",outcome="answer"} 1' obs_metrics.prom
grep -x 'aqp_server_requests_total{class="interactive",outcome="shed"} 1' obs_metrics.prom
grep -x 'aqp_server_requests_total{class="interactive",outcome="timeout"} 1' obs_metrics.prom
grep -x 'aqp_shadow_queries_total 1' obs_metrics.prom
grep -E '^aqp_shadow_within_ci_total [0-9]+$' obs_metrics.prom

echo "cli smoke: all checks passed"
