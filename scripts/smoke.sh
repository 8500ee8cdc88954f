#!/usr/bin/env bash
# Smoke-run every bench/ and examples/ binary (plus coupon_run) with tiny
# parameters, asserting exit 0 — so the figure/table code can't silently
# rot. Usage: scripts/smoke.sh [build-dir]  (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

run() {
  echo "==> $*"
  "$@" > /dev/null
}

# --- unified experiment runner: both runtimes, CSV to file and stdout ----
run "${BUILD_DIR}/tools/coupon_run" --scheme bcc --scenario shifted_exp \
    --runtime sim --iterations 5 --out "${TMP_DIR}/sim.csv"
test -s "${TMP_DIR}/sim.csv"
run "${BUILD_DIR}/tools/coupon_run" --scheme bcc --scenario shifted_exp \
    --runtime threaded --workers 4 --units 4 --load 2 --iterations 5 \
    --features 8 --examples_per_unit 5 --out "${TMP_DIR}/threaded.csv"
test -s "${TMP_DIR}/threaded.csv"
run "${BUILD_DIR}/tools/coupon_run" --scheme cr --scenario lossy \
    --runtime sim --iterations 5 --out -
run "${BUILD_DIR}/tools/coupon_run" --list
# grep reads all of its input: `grep -q` would exit at the first match,
# and under pipefail the writer's SIGPIPE would fail the step.
"${BUILD_DIR}/tools/coupon_run" --list | grep "analytic models" > /dev/null

# --- analytic oracle gate ------------------------------------------------
# --predict is zero-simulation and fully deterministic: two invocations
# must be byte-identical; --scheme auto must resolve and run end-to-end;
# an unsupported pair must fail with a ranked-table-free diagnostic.
echo "==> coupon_run --predict determinism + auto"
"${BUILD_DIR}/tools/coupon_run" --predict --scheme all \
    --scenario shifted_exp --workers 20 --units 20 --loads 2,4,10 \
    > "${TMP_DIR}/predict_a.txt"
"${BUILD_DIR}/tools/coupon_run" --predict --scheme all \
    --scenario shifted_exp --workers 20 --units 20 --loads 2,4,10 \
    > "${TMP_DIR}/predict_b.txt"
cmp "${TMP_DIR}/predict_a.txt" "${TMP_DIR}/predict_b.txt"
grep -q "E\[T\]" "${TMP_DIR}/predict_a.txt"
run "${BUILD_DIR}/tools/coupon_run" --scheme auto --scenario shifted_exp \
    --workers 10 --units 10 --load 2 --iterations 5 --out -

# Simulated training (real gradients over simulated time): the summary
# row must carry a final loss and a reached time_to_target.
run "${BUILD_DIR}/tools/coupon_run" --scheme bcc --scenario shifted_exp \
    --runtime sim --train --workers 8 --units 8 --load 2 --iterations 10 \
    --features 6 --examples_per_unit 4 --target_loss 0.69 \
    --out "${TMP_DIR}/train.csv"
grep -q "time_to_target" "${TMP_DIR}/train.csv"
test "$(tail -1 "${TMP_DIR}/train.csv" | awk -F, '{print $NF}')" != ""

# Gradient-coding family: gc_cyclic's deterministic n-r+1 timing trace,
# and sgc's approximate-recovery training run must still reach the
# target (unbiased decode => same trajectory to within the noise).
run "${BUILD_DIR}/tools/coupon_run" --scheme gc_cyclic \
    --scenario shifted_exp --runtime sim --workers 8 --units 8 --load 2 \
    --iterations 5 --out "${TMP_DIR}/gc.csv"
test -s "${TMP_DIR}/gc.csv"
run "${BUILD_DIR}/tools/coupon_run" --scheme sgc --scenario shifted_exp \
    --runtime sim --train --workers 8 --units 8 --load 2 --iterations 10 \
    --features 6 --examples_per_unit 4 --target_loss 0.69 \
    --out "${TMP_DIR}/sgc_train.csv"
grep -q "time_to_target" "${TMP_DIR}/sgc_train.csv"
test "$(tail -1 "${TMP_DIR}/sgc_train.csv" | awk -F, '{print $NF}')" != ""

# Multi-process socket runtime: 4 worker OS processes train end-to-end
# and reach the target loss; then the crash drill SIGKILLs worker 0
# mid-iteration, the run must still complete under kSkipUpdate, and its
# stderr summary must count the lost worker. At seed 123 worker 0 alone
# holds batch 0, so the master waits for it and must see its EOF. Both
# under a hard timeout so a wedged socket can never hang the smoke job.
run timeout 120 "${BUILD_DIR}/tools/coupon_run" --scheme bcc \
    --scenario no_stragglers --runtime process --workers 4 --units 4 \
    --load 2 --iterations 12 --seed 123 --features 8 --examples_per_unit 5 \
    --target_loss 0.69 --out "${TMP_DIR}/process.csv"
grep -q "time_to_target" "${TMP_DIR}/process.csv"
test "$(tail -1 "${TMP_DIR}/process.csv" | awk -F, '{print $NF}')" != ""
run timeout 120 "${BUILD_DIR}/tools/coupon_run" --scheme bcc \
    --scenario no_stragglers --runtime process --workers 4 --units 4 \
    --load 2 --iterations 12 --seed 123 --features 8 --examples_per_unit 5 \
    --crash_worker 0 --crash_iteration 2 --worker_timeout_ms 5000 \
    --out "${TMP_DIR}/process_crash.csv" 2> "${TMP_DIR}/process_crash.err"
test -s "${TMP_DIR}/process_crash.csv"
test "$(wc -l < "${TMP_DIR}/process_crash.csv")" -eq 2  # header + summary row
grep -q "workers_lost=1" "${TMP_DIR}/process_crash.err"

# Parallel sweep: 2 schemes x 2 scenarios x 2 loads -> exactly 8 JSONL
# rows and 8 CSV rows + header.
run "${BUILD_DIR}/tools/coupon_run" --sweep --schemes bcc,cr \
    --scenarios shifted_exp,lossy --loads 2,10 --iterations 5 \
    --out "${TMP_DIR}/sweep.csv" --jsonl "${TMP_DIR}/sweep.jsonl"
test "$(wc -l < "${TMP_DIR}/sweep.jsonl")" -eq 8
test "$(wc -l < "${TMP_DIR}/sweep.csv")" -eq 9
# Deterministic parallelism: a serial re-run is bit-identical.
run "${BUILD_DIR}/tools/coupon_run" --sweep --schemes bcc,cr \
    --scenarios shifted_exp,lossy --loads 2,10 --iterations 5 --threads 1 \
    --out "${TMP_DIR}/sweep_serial.csv"
cmp "${TMP_DIR}/sweep.csv" "${TMP_DIR}/sweep_serial.csv"

# Training sweep: 12 cells on 2 problems (one per seed), so cells share a
# drawn dataset. A serial and a 4-thread run write the same JSONL, loss
# histories included.
for threads in 1 4; do
  run "${BUILD_DIR}/tools/coupon_run" --sweep --train --loss_history \
      --schemes bcc,gc_cyclic,uncoded --seeds 1,2 --workers_axis 20 \
      --loads 2,4 --iterations 20 --threads "${threads}" --out /dev/null \
      --jsonl "${TMP_DIR}/train_sweep_${threads}.jsonl"
done
test "$(wc -l < "${TMP_DIR}/train_sweep_1.jsonl")" -eq 12
cmp "${TMP_DIR}/train_sweep_1.jsonl" "${TMP_DIR}/train_sweep_4.jsonl"

# Pluggable latency models: sweep the new-model scenarios, then replay a
# per-worker latency trace from CSV via the parameterized trace:<path>
# scenario.
run "${BUILD_DIR}/tools/coupon_run" --sweep --schemes bcc,uncoded \
    --scenarios heavy_tail,weibull,bursty,markov --iterations 5 \
    --out "${TMP_DIR}/models.csv"
test "$(wc -l < "${TMP_DIR}/models.csv")" -eq 9
printf '0.01,0.02,0.03,0.04\n0.02,0.01,0.05,0.03\n' > "${TMP_DIR}/trace.csv"
run "${BUILD_DIR}/tools/coupon_run" --scheme uncoded \
    --scenario "trace:${TMP_DIR}/trace.csv" --workers 4 --units 4 --load 1 \
    --iterations 4 --out "${TMP_DIR}/trace_run.csv"
test -s "${TMP_DIR}/trace_run.csv"

# --- user errors ---------------------------------------------------------
# A bad count or load must end in a message and exit 1: not a crash (136
# is SIGFPE), not a run that wraps a negative count and hangs until the
# timeout (124), and not an internal assertion. stderr must name what was
# wrong.
expect_error() {
  local pattern="$1"
  shift
  echo "==> (expect exit 1, stderr ~ '${pattern}') $*"
  local status=0
  timeout 10 "$@" > /dev/null 2> "${TMP_DIR}/err.txt" || status=$?
  test "${status}" -eq 1
  grep -q -- "${pattern}" "${TMP_DIR}/err.txt"
  if grep -q "assertion failed" "${TMP_DIR}/err.txt"; then
    echo "an internal assertion, not a message: $(cat "${TMP_DIR}/err.txt")" >&2
    return 1
  fi
}
expect_error "r >= 1" "${BUILD_DIR}/tools/coupon_run" --scheme gc_nested \
    --workers 4 --units 4 --load 0 --iterations 2
expect_error "--iterations must be >= 0" "${BUILD_DIR}/tools/coupon_run" \
    --sweep --schemes bcc --workers 4 --units 4 --load 2 --iterations -1 \
    --threads 1
expect_error "--iterations must be >= 0" "${BUILD_DIR}/tools/coupon_run" \
    --iterations -1
expect_error "--workers must be >= 0" "${BUILD_DIR}/tools/coupon_run" \
    --predict --scheme bcc --workers -3
expect_error "--threads must be >= 0" "${BUILD_DIR}/tools/coupon_run" \
    --sweep --schemes bcc --iterations 2 --threads -1
# A number must be the whole value, not a readable prefix of it.
expect_error "bad value '50x' for flag --workers" \
    "${BUILD_DIR}/tools/coupon_run" --workers 50x --iterations 2
expect_error "bad value '0xEC2001' for flag --seed" \
    "${BUILD_DIR}/tools/coupon_run" --seed 0xEC2001 --iterations 2
# A scheme's shape rule is a message, not the factory's assertion.
expect_error "requires m == n" "${BUILD_DIR}/tools/coupon_run" --scheme cr \
    --workers 6 --units 4 --load 2 --iterations 2
expect_error "requires r | n" "${BUILD_DIR}/tools/coupon_run" --scheme fr \
    --workers 6 --units 6 --load 4 --iterations 2
expect_error "requires n >= ceil(m/r)" "${BUILD_DIR}/tools/coupon_run" \
    --scheme bcc --workers 5 --units 100 --load 2 --iterations 2
# A zero load is a ranked-table footnote, not a crash.
echo "==> coupon_run --predict --scheme all --loads 0"
timeout 10 "${BUILD_DIR}/tools/coupon_run" --predict --scheme all --loads 0 \
    > "${TMP_DIR}/predict_r0.txt"
sed -n '/not predictable/,$p' "${TMP_DIR}/predict_r0.txt" | grep "gc_nested" \
    > /dev/null
# Without an n or m axis, a sweep takes m from --units, as a single run does.
run timeout 10 "${BUILD_DIR}/tools/coupon_run" --sweep --schemes bcc \
    --workers 50 --units 60 --iterations 2 --out "${TMP_DIR}/units.csv"
test "$(tail -1 "${TMP_DIR}/units.csv" | cut -d, -f5)" = 60

# --- benches -------------------------------------------------------------
run "${BUILD_DIR}/bench/bench_ablation_coverage" --trials 200
run "${BUILD_DIR}/bench/bench_ablation_drop" --iterations 10
run "${BUILD_DIR}/bench/bench_ablation_latency_models" --iterations 10
run "${BUILD_DIR}/bench/bench_ablation_master_bw" --iterations 5
run "${BUILD_DIR}/bench/bench_ablation_r_sweep" --iterations 5 --placements 2
run "${BUILD_DIR}/bench/bench_coupon_tail" --trials 500
run "${BUILD_DIR}/bench/bench_fig2_tradeoff" --trials 50 --quick --workers 100
run "${BUILD_DIR}/bench/bench_fig4_runtime" --iterations 5
run "${BUILD_DIR}/bench/bench_fig5_heterogeneous" --trials 50 --refine_steps 10
run "${BUILD_DIR}/bench/bench_fig6_convergence" --quick \
    --csv "${TMP_DIR}/fig6.csv"
test -s "${TMP_DIR}/fig6.csv"
run "${BUILD_DIR}/bench/bench_perf_sim" --quick --reps 1 \
    --out "${TMP_DIR}/perf.json"
test -s "${TMP_DIR}/perf.json"
run "${BUILD_DIR}/bench/bench_table1_scenario1" --iterations 5 \
    --csv "${TMP_DIR}/table1.csv"
test -s "${TMP_DIR}/table1.csv"
run "${BUILD_DIR}/bench/bench_table2_scenario2" --iterations 5

# Google Benchmark microbenches are optional (skipped when the library is
# absent at configure time).
if [ -x "${BUILD_DIR}/bench/bench_encode_decode" ]; then
  run "${BUILD_DIR}/bench/bench_encode_decode" --benchmark_min_time=0.01
fi
if [ -x "${BUILD_DIR}/bench/bench_micro_linalg" ]; then
  run "${BUILD_DIR}/bench/bench_micro_linalg" --benchmark_min_time=0.01
fi

# --- examples ------------------------------------------------------------
run "${BUILD_DIR}/examples/example_compare_schemes" --iterations 5
run "${BUILD_DIR}/examples/example_heterogeneous_cluster" --trials 50
run "${BUILD_DIR}/examples/example_quickstart" --workers 4 --examples 80 \
    --features 20 --iterations 5
run "${BUILD_DIR}/examples/example_straggler_profile" --workers 8 --load 2 \
    --features 20 --iterations 3

echo "smoke OK"
