#!/usr/bin/env bash
# Builds the benchmarks in Release and records the perf trajectory.
#
# Usage: tools/run_benches.sh [--refresh-baseline] [build-dir]
#
# Runs bench/engine_throughput (the bytecode kernels per P, the
# bytecode-vs-JIT steady-state A/B surfaced as the record's top-level
# "jit" object, and the whole-program native backend surfaced as the
# "native" object) and bench/serve_throughput (the compile-service
# cold-vs-warm A/B, surfaced as the record's "serve" object) and
# *appends* their merged record to BENCH_engine.json at the repo root
# as {"runs": [...]}; the file is (re)created idempotently when
# missing, empty, or corrupt, and a legacy single-object file is
# wrapped on first append. Then
# runs bench/spmd_end_to_end for the paper-shape tables.
#
# --refresh-baseline additionally rewrites tools/bench_baseline.json
# from a fresh smoke-shape run (n=512, T=50 — the shape the CI gates in
# .github/workflows/ci.yml replay), preserving the schema those gates
# consume (including the "jit" and "native" records).
#
# Any non-zero exit (including the benches' internal bit-identity
# verification) fails the script.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
refresh_baseline=0
build_dir=""
for arg in "$@"; do
  case "$arg" in
    --refresh-baseline) refresh_baseline=1 ;;
    *) build_dir="$arg" ;;
  esac
done
build_dir="${build_dir:-$repo_root/build-bench}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc)" \
  --target engine_throughput trace_overhead serve_throughput \
           spmd_end_to_end

cd "$repo_root"

out="$repo_root/BENCH_engine.json"
tmp="$(mktemp)"
serve_tmp="$(mktemp)"
smoke_tmp="$(mktemp)"
to_tmp="$(mktemp)"
trap 'rm -f "$tmp" "$serve_tmp" "$smoke_tmp" "$to_tmp"' EXIT
"$build_dir/bench/engine_throughput" "$tmp"
"$build_dir/bench/serve_throughput" "$serve_tmp"

if command -v jq >/dev/null 2>&1; then
  stamped="$(jq --arg ts "$(date -u +%FT%TZ)" \
    --slurpfile serve "$serve_tmp" \
    '. + {recorded: $ts, serve: $serve[0]}' "$tmp")"
  if [ -s "$out" ] && jq -e . "$out" >/dev/null 2>&1; then
    if jq -e 'has("runs")' "$out" >/dev/null 2>&1; then
      jq --argjson new "$stamped" '.runs += [$new]' "$out" >"$out.tmp"
    else
      # Legacy layout: a bare single-run object. Wrap it.
      jq --argjson new "$stamped" '{runs: [., $new]}' "$out" >"$out.tmp"
    fi
    mv "$out.tmp" "$out"
  else
    # Missing, empty, or corrupt: (re)create the trajectory file.
    printf '%s' "$stamped" | jq '{runs: [.]}' >"$out"
  fi
else
  # Without jq, keep the raw record (overwrite) rather than corrupt the
  # trajectory file with hand-rolled concatenation.
  echo "warning: jq not found; writing $out without appending" >&2
  cp "$tmp" "$out"
fi

if [ "$refresh_baseline" = 1 ]; then
  if ! command -v jq >/dev/null 2>&1; then
    echo "error: --refresh-baseline needs jq" >&2
    exit 1
  fi
  # The committed baseline records the CI smoke shape, not the full
  # trajectory shape, so the gates compare like with like.
  "$build_dir/bench/engine_throughput" --n=512 --steps=50 "$smoke_tmp"
  "$build_dir/bench/trace_overhead" "$to_tmp"
  "$build_dir/bench/serve_throughput" --clients=4 --programs=4 --repeat=10 \
    "$serve_tmp"
  jq --slurpfile to "$to_tmp" --slurpfile serve "$serve_tmp" \
    '. + {trace_overhead:
            ($to[0] | {n, steps, untraced_iters_per_sec,
                       traced_overhead_pct: .overhead_pct,
                       ns_per_event:
                         (if .trace_events > 0
                          then ((.wall_ms_traced - .wall_ms_untraced)
                                * 1e6 / .trace_events | floor)
                          else 0 end)}),
          serve: $serve[0]}' \
    "$smoke_tmp" >"$repo_root/tools/bench_baseline.json"
  echo "refreshed tools/bench_baseline.json"
fi

# Paper-shape tables; google-benchmark timing cells kept short.
"$build_dir/bench/spmd_end_to_end" --benchmark_min_time=0.05

echo
echo "BENCH_engine.json:"
cat "$out"
