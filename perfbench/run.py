#!/usr/bin/env python3
"""End-to-end benchmark of the coupon library (see README.md here).

Builds the benchmark from the checkout's sources, runs one workload in its
own process, and prints as the last line of stdout one JSON object with
the keys correct, attempted, failed and metrics:

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Other modes:

    python3 perfbench/run.py                                   # every workload
    python3 perfbench/run.py --workload sim_giant --repeat 5   # median + quartiles
    python3 perfbench/run.py --selftest                        # decorator tests + lint

Exits non-zero without printing a result when the build, the run, or the
name check fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spec_run_seconds():
    return load_spec()["run_seconds"]


def lint(spec):
    """Every workload and metric name, and every unit, within the limits."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for m in spec[group]:
            if not UNIT_RE.match(m["unit"]):
                problems.append("bad unit %r of %s" % (m["unit"], m["name"]))
    for name in names:
        if not NAME_RE.match(name):
            problems.append("bad name %r" % name)
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    return problems


def run_once(binary, spec, workload, seed, seconds, trace):
    """Runs the binary once; returns (note lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s failed (exit code %d)" % (workload, done.returncode))
    result = json.loads(lines[-1])
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[group]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != expected:
        fail("%s printed metrics %s, BENCHMARK.json lists %s"
             % (workload, sorted(printed.items()), sorted(expected.items())))
    return lines[:-1], result


def repeat(binary, spec, args):
    """Runs the workload k times on consecutive seeds; prints each metric's
    median, quartiles, and quartile spread as a share of the median."""
    values = {}
    for i in range(args.repeat):
        _, result = run_once(binary, spec, args.workload, args.seed + i,
                             args.seconds, args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("# run %d: correct=%s %s" % (i, result["correct"], json.dumps(
            {k: v["value"] for k, v in result["metrics"].items()})))
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print("%-32s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f"
              % (name, med, q1, q3, spread))
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    problems = lint(spec)
    if problems:
        fail("BENCHMARK.json: " + "; ".join(problems))
    out = build()
    if args.selftest:
        done = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S)
        sys.exit(done.returncode)
    workloads = [w["name"] for w in spec["workloads"]]
    binary = os.path.join(out, "perfbench")
    if args.workload is None:
        # Every workload, each in its own process, then one summary line.
        results = {}
        for name in workloads:
            notes, results[name] = run_once(binary, spec, name, args.seed,
                                            args.seconds, args.trace)
            for line in notes:
                print("# %s %s" % (name, line.lstrip("# ")))
            print("# %s %s" % (name, json.dumps(results[name])))
        print(json.dumps({"workloads": results}))
        return
    if args.workload not in workloads:
        fail("--workload must be one of " + ", ".join(workloads))
    if args.repeat > 0:
        repeat(binary, spec, args)
        return
    notes, result = run_once(binary, spec, args.workload, args.seed,
                             args.seconds, args.trace)
    for line in notes:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
