#!/usr/bin/env bash
# One-shot build & verification runner.
#
#   scripts/check.sh              # release build + full ctest suite
#   scripts/check.sh asan         # the same under AddressSanitizer
#   scripts/check.sh ubsan        # the same under UBSan
#   scripts/check.sh tsan         # serving-layer suites under ThreadSanitizer
#   scripts/check.sh all          # release, then asan, then ubsan, then tsan
#
# Any extra arguments are forwarded to ctest, e.g.:
#   scripts/check.sh release -R Serialization
set -euo pipefail

cd "$(dirname "$0")/.."

run_preset() {
  local preset=$1; shift
  echo "==> ${preset}: configure"
  cmake --preset "${preset}"
  echo "==> ${preset}: build"
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "==> ${preset}: ctest"
  ctest --preset "${preset}" "$@"
  echo "==> ${preset}: OK"
}

# The TSan suite list has one home: the tsan test preset's name filter in
# CMakePresets.json (CI runs `ctest --preset tsan` with it unchanged).
# TSan exists for the concurrent serving layer; the sequential suites
# triple their runtime under it for no additional coverage. A forwarded
# -R replaces the preset's filter, so the filter is re-appended last: a
# forwarded -R cannot widen the run (ctest honors the last -R).
tsan_filter() {
  python3 -c 'import json; print(next(p for p in json.load(open("CMakePresets.json"))["testPresets"] if p["name"] == "tsan")["filter"]["include"]["name"])'
}

mode=${1:-release}
[ $# -gt 0 ] && shift

case "${mode}" in
  release|debug|asan|ubsan)
    run_preset "${mode}" "$@"
    ;;
  tsan)
    filter=$(tsan_filter)  # an assignment, so set -e stops on a failed read
    run_preset tsan "$@" -R "${filter}"
    ;;
  all)
    run_preset release "$@"
    run_preset asan "$@"
    run_preset ubsan "$@"
    filter=$(tsan_filter)
    run_preset tsan "$@" -R "${filter}"
    ;;
  *)
    echo "usage: $0 [release|debug|asan|ubsan|tsan|all] [ctest args...]" >&2
    exit 2
    ;;
esac
