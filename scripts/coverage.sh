#!/usr/bin/env bash
# Line-coverage gate for the statistical core and the training kernels:
# builds Debug with gcov instrumentation, runs the test suite, aggregates
# line coverage over src/core/, src/data/, src/simulate/, src/stats/,
# src/analytic/, src/linalg/, and src/opt/, writes coverage-summary.txt,
# and fails when coverage drops below the recorded baseline
# (scripts/coverage_baseline.txt).
#
# Needs only `gcov` (ships with GCC) — no gcovr/lcov. Usage:
#   scripts/coverage.sh [build-dir]   (default: build-cov)
set -euo pipefail

BUILD_DIR="${1:-build-cov}"
REPO_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BASELINE_FILE="${REPO_DIR}/scripts/coverage_baseline.txt"
SUMMARY_FILE="${BUILD_DIR}/coverage-summary.txt"

cmake -B "${BUILD_DIR}" -S "${REPO_DIR}" \
  -DCMAKE_BUILD_TYPE=Debug -DCOUPON_COVERAGE=ON \
  -DCOUPON_BUILD_BENCH=OFF -DCOUPON_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j 4 > /dev/null

# Aggregate with plain gcov: run it over every .gcda in the coupon
# library's core/, data/, simulate/, stats/, analytic/, linalg/, and opt/
# objects, keep per-source "Lines executed" summaries for files under
# those trees, and take the max per file across translation units
# (headers show up in several TUs; the max is what the best-informed TU
# measured).
OBJ_DIR="${BUILD_DIR}/src/CMakeFiles/coupon.dir"
GCDA_FILES=$(find "${OBJ_DIR}/core" "${OBJ_DIR}/data" "${OBJ_DIR}/simulate" \
  "${OBJ_DIR}/stats" "${OBJ_DIR}/analytic" "${OBJ_DIR}/linalg" \
  "${OBJ_DIR}/opt" -name '*.gcda')
if [ -z "${GCDA_FILES}" ]; then
  echo "no .gcda files under ${OBJ_DIR} — did the tests run?" >&2
  exit 1
fi

# gcov prints "File '<path>'" then "Lines executed:P% of N".
# shellcheck disable=SC2086
gcov -n ${GCDA_FILES} 2>/dev/null |
  awk -v repo="${REPO_DIR}/" '
    /^File / {
      file = $2; gsub(/\x27/, "", file); sub(repo, "", file); next
    }
    /^Lines executed:/ {
      if (file ~ /^src\/(core|data|simulate|stats|analytic|linalg|opt)\//) {
        split($0, parts, /[:% ]+/)
        pct = parts[3]; n = parts[5]
        covered = pct / 100.0 * n
        if (!(file in best) || covered > best_covered[file]) {
          best[file] = n; best_covered[file] = covered
        }
      }
      file = ""
    }
    END {
      total = 0; total_covered = 0
      for (f in best) {
        printf "%6.2f%%  %5d lines  %s\n",
               100.0 * best_covered[f] / best[f], best[f], f
        total += best[f]; total_covered += best_covered[f]
      }
      if (total == 0) { print "no matching source files" > "/dev/stderr"; exit 1 }
      printf "TOTAL %.2f%% of %d lines in src/core + src/data + src/simulate + src/stats + src/analytic + src/linalg + src/opt\n",
             100.0 * total_covered / total, total
    }' > "${SUMMARY_FILE}.raw"

# Per-file lines sorted by path, TOTAL last.
{ grep -v '^TOTAL' "${SUMMARY_FILE}.raw" | sort -k4;
  grep '^TOTAL' "${SUMMARY_FILE}.raw"; } > "${SUMMARY_FILE}"
rm -f "${SUMMARY_FILE}.raw"

cat "${SUMMARY_FILE}"

ACTUAL=$(awk '/^TOTAL/ {sub(/%/, "", $2); print $2}' "${SUMMARY_FILE}")
BASELINE=$(cat "${BASELINE_FILE}")
echo "line coverage: ${ACTUAL}% (baseline: ${BASELINE}%)"
awk -v actual="${ACTUAL}" -v baseline="${BASELINE}" 'BEGIN {
  if (actual + 0 < baseline + 0) {
    printf "FAIL: coverage %.2f%% dropped below the %.2f%% baseline\n",
           actual, baseline
    exit 1
  }
  print "OK: coverage at or above baseline"
}'
