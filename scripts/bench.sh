#!/usr/bin/env bash
# Kernel and scheduling benchmarks (PR 5/6): hash aggregation (flat,
# dictionary, and RLE keys) and hash join build+probe (flat and dictionary
# probe), which have one implementation and are recorded as absolute numbers;
# filter selection kernels vs the interpreted filter; and morsel-driven vs
# static split scheduling (DisableMorsels) over a pathologically skewed table.
# Where a benchmark has a slower twin the ratio is the feature's speedup.
# Writes machine-readable results to BENCH_6.json at the repository root.
#
# Adaptive-execution benchmarks (PR 7): selective Fig. 6 join shapes
# (q37/q64/q82) with dynamic join filters on vs the
# DisableDynamicFilters ablation. Writes BENCH_7.json at the repository
# root, stamped with the git SHA the numbers were taken at.
#
# Larger-than-memory benchmark (PR 9): memory-cap sweep (uncapped vs 1/4 vs
# 1/16 of the measured working set, rows verified against the uncapped run)
# plus worker-kill recovery latency under materialized exchange. The test
# writes git-SHA-stamped JSON to BENCH_9.json.
#
# Serving-tier benchmark (PR 8): closed-loop high-concurrency interactive
# workload (thousands of statements) with the plan cache, result cache, and
# shared scans on vs per-session off, plus a scan-sharing-isolated phase.
# The test itself writes git-SHA-stamped QPS/p50/p95/p99 JSON to
# BENCH_8.json.
#
#   scripts/bench.sh                 # 2s per benchmark (~2 min total)
#   BENCHTIME=500ms scripts/bench.sh # quicker, noisier
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2s}"
out="BENCH_6.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "==> go test -bench (benchtime $benchtime)"
go test -run '^$' \
  -bench 'HashAggBigintKey|HashAggVarcharKey|HashAggDictVarcharKey|HashAggRLEKey|HashJoinBuildProbe|HashJoinDictKey|FilterSelectivity|MorselSkewScan' \
  -benchtime "$benchtime" -benchmem . | tee "$tmp"

{
  echo '{'
  echo '  "bench": "hash kernels (absolute), filter kernels (vec vs legacy) and morsel scheduling (morsel vs static)",'
  echo "  \"benchtime\": \"$benchtime\","
  echo "  \"go\": \"$(go env GOVERSION)\","
  echo '  "results": ['
  awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
      row = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", name, $2, $3)
      for (i = 4; i < NF; i++) {
        if ($(i+1) == "MB/s")      row = row sprintf(", \"mb_per_s\": %s", $i)
        if ($(i+1) == "B/op")      row = row sprintf(", \"bytes_per_op\": %s", $i)
        if ($(i+1) == "allocs/op") row = row sprintf(", \"allocs_per_op\": %s", $i)
      }
      rows[n++] = row "}"
    }
    END { for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n-1 ? "," : "") }
  ' "$tmp"
  echo '  ],'
  echo '  "speedups": ['
  awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
      base = name
      if (sub(/\/vec$/, "", base)) variant = "fast"
      else if (sub(/\/legacy$/, "", base)) variant = "slow"
      else if (sub(/\/morsel$/, "", base)) variant = "fast"
      else if (sub(/\/static$/, "", base)) variant = "slow"
      else next
      if (!(base in idx)) { order[m++] = base; idx[base] = 1 }
      ns[base "." variant] = $3
    }
    END {
      first = 1
      for (i = 0; i < m; i++) {
        b = order[i]; f = ns[b ".fast"]; s = ns[b ".slow"]
        if (f > 0 && s > 0) {
          if (!first) printf ",\n"
          first = 0
          printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"ablation_ns_per_op\": %s, \"speedup\": %.2f}", b, f, s, s / f
        }
      }
      printf "\n"
    }
  ' "$tmp"
  echo '  ]'
  echo '}'
} > "$out"

echo "==> wrote $out"

out7="BENCH_7.json"
tmp7="$(mktemp)"
trap 'rm -f "$tmp" "$tmp7"' EXIT

echo "==> go test -bench DynFilterFig6 (benchtime $benchtime)"
go test -run '^$' -bench 'DynFilterFig6' -benchtime "$benchtime" . | tee "$tmp7"

{
  echo '{'
  echo '  "bench": "dynamic join filters on selective Fig. 6 joins (on vs DisableDynamicFilters)",'
  echo "  \"sha\": \"$(git rev-parse HEAD 2>/dev/null || echo unknown)\","
  echo "  \"benchtime\": \"$benchtime\","
  echo "  \"go\": \"$(go env GOVERSION)\","
  echo '  "results": ['
  awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
      rows[n++] = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s}", name, $2, $3)
    }
    END { for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n-1 ? "," : "") }
  ' "$tmp7"
  echo '  ],'
  echo '  "speedups": ['
  awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
      base = name
      if (sub(/\/on$/, "", base)) variant = "fast"
      else if (sub(/\/off$/, "", base)) variant = "slow"
      else next
      if (!(base in idx)) { order[m++] = base; idx[base] = 1 }
      ns[base "." variant] = $3
    }
    END {
      first = 1
      for (i = 0; i < m; i++) {
        b = order[i]; f = ns[b ".fast"]; s = ns[b ".slow"]
        if (f > 0 && s > 0) {
          if (!first) printf ",\n"
          first = 0
          printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"ablation_ns_per_op\": %s, \"speedup\": %.2f}", b, f, s, s / f
        }
      }
      printf "\n"
    }
  ' "$tmp7"
  echo '  ]'
  echo '}'
} > "$out7"

echo "==> wrote $out7"

echo "==> closed-loop serving benchmark (BENCH_8.json)"
GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
  BENCH8_OUT="$(pwd)/BENCH_8.json" \
  go test -run 'TestServingClosedLoopBench' -count=1 -v . | grep -E 'qps|PASS|FAIL' || true

echo "==> wrote BENCH_8.json"

echo "==> larger-than-memory benchmark (BENCH_9.json)"
GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
  BENCH9_OUT="$(pwd)/BENCH_9.json" \
  go test -run 'TestSpillElasticBench' -count=1 -v . | grep -E 'wall=|recovery|PASS|FAIL' || true

echo "==> wrote BENCH_9.json"
