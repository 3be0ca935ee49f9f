#!/usr/bin/env bash
# The registry-vs-README drift check (ctest readme_registries): the names
# engine_info prints one per line for each registry must equal the
# backticked first-column names of the matching README table, in sorted
# order.  A drift prints a unified diff and fails the test.
#
#   bash tests/readme_registries.sh BIN_DIR README
#
# BIN_DIR holds the built engine_info; README is the repo's README.md.
set -u
export LC_ALL=C  # byte-order sort, whatever the caller's locale

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BIN_DIR README" >&2
  exit 2
fi
engine_info="$1/engine_info"
readme="$2"
status=0

# check FLAG SECTION_AWK LABEL
# SECTION_AWK prints the README lines of the table's section.
check() {
  local registry table
  if ! registry=$("$engine_info" "$1"); then
    echo "FAIL: engine_info $1 exited non-zero"
    status=1
    return
  fi
  table=$(awk "$2" "$readme" | grep -Eo '^\| `[a-z_0-9]+`' | tr -d '|` ' |
          sort)
  if [[ $registry == "$table" ]]; then
    echo "ok: $3 ($(wc -l <<< "$registry") names)"
  else
    echo "FAIL: $3 drifted (engine_info $1 vs README):"
    diff -u <(echo "$registry") <(echo "$table")
    status=1
  fi
}

check --names \
  '/^## Execution engines/{f=1;next} /^## /{f=0} f' \
  "engine::make registry vs README Execution engines table"
check --policies \
  '/^### Overload policies/{f=1;next} /^#/{f=0} f' \
  "serve overload-policy registry vs README Overload policies table"
check --routers \
  '/^### Routers/{f=1;next} /^#/{f=0} f' \
  "fleet::make_router registry vs README Routers table"
check --reconfig-policies \
  '/^### Reconfiguration policies/{f=1;next} /^#/{f=0} f' \
  "serve reconfiguration-policy registry vs README Reconfiguration policies table"
check --memory \
  '/^## Memory hierarchy/{f=1;next} /^## /{f=0} f' \
  "MemoryConfig knobs vs README Memory hierarchy table"
exit $status
