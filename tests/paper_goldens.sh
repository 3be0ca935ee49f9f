#!/usr/bin/env bash
# The paper-outputs check (ctest paper_goldens): runs each paper-facing
# binary in its own empty scratch directory and byte-compares its stdout,
# and every CSV it writes, with the files committed under tests/golden/.
# calibration_probe is among them: it prints the gate-level characterized
# per-op energies, so the golden also pins the netlist simulator's toggles.
# A mismatch prints a unified diff and fails the test.
#
#   bash tests/paper_goldens.sh BIN_DIR GOLDEN_DIR [--update]
#
# BIN_DIR holds the built binaries.  A deliberate model change regenerates
# the goldens with --update and commits them in its own diff, where review
# sees every changed number.
set -u

if [[ $# -lt 2 ]]; then
  echo "usage: $0 BIN_DIR GOLDEN_DIR [--update]" >&2
  exit 2
fi
bin_dir=$(cd "$1" && pwd) || exit 2
golden_dir=$(cd "$2" && pwd) || exit 2
update=${3:-}

binaries=(bench_fig5_layer_sweep bench_fig6_area bench_fig7_convnext_layers
          bench_fig8_total_time bench_fig9_power bench_eq7_model
          bench_clock_table bench_ablation_csa bench_ablation_power_method
          bench_ext_asymmetric bench_ext_sparse calibration_probe)

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
status=0
produced=()

# check PRODUCED_FILE GOLDEN_NAME
check() {
  produced+=("$2")
  local golden="$golden_dir/$2"
  if [[ $update == --update ]]; then
    cp "$1" "$golden"
  elif [[ ! -f $golden ]]; then
    echo "FAIL: $2 has no golden file"
    status=1
  elif ! cmp -s "$golden" "$1"; then
    echo "FAIL: $2 differs from its golden:"
    diff -u "$golden" "$1" | head -n 60
    status=1
  fi
}

for b in "${binaries[@]}"; do
  run_dir="$scratch/$b"
  mkdir "$run_dir"
  if ! (cd "$run_dir" && "$bin_dir/$b" > "$scratch/$b.stdout"); then
    echo "FAIL: $b exited non-zero"
    status=1
    continue
  fi
  check "$scratch/$b.stdout" "$b.stdout"
  for csv in "$run_dir"/*.csv; do
    [[ -e $csv ]] && check "$csv" "$(basename "$csv")"
  done
done

# A golden no binary wrote any more is a dropped output, not a pass.
for golden in "$golden_dir"/*; do
  name=$(basename "$golden")
  if [[ " ${produced[*]} " != *" $name "* ]]; then
    echo "FAIL: $name was not produced by any binary"
    status=1
  fi
done

if [[ $status -eq 0 ]]; then
  if [[ $update == --update ]]; then
    echo "paper goldens: ${#produced[@]} files written to $golden_dir"
  else
    echo "paper goldens: ${#produced[@]} files identical"
  fi
fi
exit $status
