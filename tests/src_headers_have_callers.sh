#!/usr/bin/env bash
# The orphan-header check (ctest src_headers_have_callers): every header
# under src/ must be included by a program file, so a module that only
# tests call cannot sit in the library.  A header counts as used when some
# file under src/ (other than its own .cpp), bench/, examples/ or
# benchmark/src/ has an `#include "<dir>/<name>.h"` line for it.  Includes
# from tests/ do not count.  The orphans are printed and the test fails.
#
#   bash tests/src_headers_have_callers.sh REPO_ROOT
#
# Only include lines are read, so an include nothing uses defeats the
# check: src/arch/array.h once included arch/pe.h without using it, which
# kept that behavioural PE, called only by a test, looking used.
set -u
export LC_ALL=C

if [[ $# -ne 1 ]]; then
  echo "usage: $0 REPO_ROOT" >&2
  exit 2
fi
cd "$1" || exit 2

callers=(src bench examples benchmark/src)
orphans=()
checked=0
while IFS= read -r header; do
  rel=${header#src/}
  own_cpp=${header%.h}.cpp
  pattern="^[[:space:]]*#[[:space:]]*include[[:space:]]*\"${rel//./\\.}\""
  used=0
  while IFS= read -r file; do
    if [[ $file != "$own_cpp" ]]; then
      used=1
      break
    fi
  done < <(grep -rlE --include='*.h' --include='*.cpp' "$pattern" \
             "${callers[@]}")
  checked=$((checked + 1))
  [[ $used == 1 ]] || orphans+=("$header")
done < <(find src -name '*.h' | sort)

if [[ $checked == 0 ]]; then
  echo "FAIL: no headers found under $1/src"
  exit 1
fi
if [[ ${#orphans[@]} -gt 0 ]]; then
  echo "FAIL: ${#orphans[@]} header(s) under src/ with no caller outside tests/:"
  printf '  %s\n' "${orphans[@]}"
  exit 1
fi
echo "ok: all $checked headers under src/ have a caller outside tests/"
