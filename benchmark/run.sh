#!/usr/bin/env bash
# Builds arrayflex_bench (Release) from this checkout and runs it.
#
# One run of one workload, the form BENCHMARK.json's command uses:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last line of standard output is the run's JSON result.  With
# --trace 1 the result holds the per-layer metrics and the Chrome trace is
# written to .bench_build/traces/NAME-seedN.json.
#
# Every workload, each in its own process, then one traced run of each:
#
#   bash benchmark/run.sh OUTDIR [RUNS] [SEED]
#
# Round r (0-based) runs every workload with seed SEED + r.  SEED defaults
# to the main seed, 1; claims must also hold on the held-out seed, 1001.
# Each run's full record (metrics, commit, build type, hardware threads,
# seed) goes to OUTDIR/WORKLOAD.seedN.json, traced runs to
# OUTDIR/WORKLOAD.seedN.traced.json with their trace under OUTDIR/traces/.
# compare.py then prints every metric's median and quartiles and the
# tracing overhead.  Exits non-zero if any correctness check failed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/arrayflex_bench"
bin="$build/arrayflex_bench"
workloads=(cost_open transformer_fleet cycle_validate design_sweep)
main_seed=1

build_bench() {
  if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
    local generator=()
    if command -v ninja >/dev/null; then generator=(-G Ninja); fi
    cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      "${generator[@]}" >&2
  fi
  cmake --build "$build" --target arrayflex_bench -j "$(nproc)" >&2
}

run_one() {
  local args=() workload="" seed="" trace=0
  while [[ $# -gt 0 ]]; do
    if [[ $# -lt 2 ]]; then
      echo "run.sh: $1 needs a value" >&2
      exit 2
    fi
    case "$1" in
      --trace) trace="$2" ;;
      --workload) workload="$2"; args+=("$1" "$2") ;;
      --seed) seed="$2"; args+=("$1" "$2") ;;
      *) args+=("$1" "$2") ;;
    esac
    shift 2
  done
  case "$trace" in
    0) ;;
    1)
      mkdir -p "$root/.bench_build/traces"
      args+=(--trace "$root/.bench_build/traces/$workload-seed$seed.json")
      ;;
    *)
      echo "run.sh: --trace takes 0 or 1" >&2
      exit 2
      ;;
  esac
  build_bench
  exec "$bin" "${args[@]}"
}

run_all() {
  local out="$1" runs="${2:-1}" first="${3:-$main_seed}"
  local seconds commit status=0
  seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"
  commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
  if [[ "$commit" != unknown ]] && ! git -C "$root" diff --quiet HEAD 2>/dev/null; then
    commit="$commit-dirty"
  fi
  build_bench
  mkdir -p "$out/traces"
  for ((r = 0; r < runs; r++)); do
    local seed=$((first + r))
    for w in "${workloads[@]}"; do
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --commit "$commit" \
        --json "$out/$w.seed$seed.json" || status=1
    done
  done
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --seed "$first" --seconds "$seconds" --commit "$commit" \
      --json "$out/$w.seed$first.traced.json" \
      --trace "$out/traces/$w.seed$first.json" || status=1
  done
  python3 "$root/benchmark/compare.py" "$out" || status=1
  return "$status"
}

if [[ $# -gt 0 && "$1" != -* ]]; then
  run_all "$@"
else
  run_one "$@"
fi
