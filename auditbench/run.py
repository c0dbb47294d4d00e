#!/usr/bin/env python3
"""Audit benchmark: builds dpaudit from this checkout, runs one workload for
a fixed time, checks its outputs independently, and prints every metric.

    python3 auditbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout root, scratch output to .auditbench_run/.
With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics. The last line of standard output is
the JSON result; the exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "auditbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no dpaudit sources under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "auditbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "auditbench_bin"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "auditbench_bin")


def end_to_end(result):
    rounds = [r for r in result["rounds"] if not r["traced"]]
    audit_s = statistics.median([r["audit_s"] for r in rounds])
    completed = rounds[0]["attempted"] - rounds[0]["failed"]
    return {
        "setup_s": result["setup_s"],
        "audit_s": audit_s,
        "trials_per_s": completed / audit_s,
        "cpu_s": (result["setup_cpu_s"] +
                  statistics.median([r["cpu_s"] for r in rounds])),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    out_dir = os.path.join(ROOT, ".auditbench_run", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    # The program gets only the benchmark's inputs: no DPAUDIT_* knobs leak
    # in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DPAUDIT_")}
    started = time.monotonic()
    try:
        subprocess.run([binary, "--workload", args.workload, "--seed",
                        str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", out_dir],
                       check=True, env=env, stdout=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        log(f"benchmark binary failed: {error}")
        return 1
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)
    result["setup_s"] = result["setup_done_s"] - started

    persistent = args.workload == "trio_cached_audit"
    failures = checks.run_all(result, persistent)
    for failure in failures:
        log(f"CHECK FAILED: {failure}")

    values = result["per_layer"] if args.trace else end_to_end(result)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        log(f"metrics not produced: {missing}")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(r["attempted"] for r in result["rounds"])
    failed = sum(r["failed"] for r in result["rounds"])

    print(f"workload {args.workload} seed {args.seed} threads "
          f"{result['threads']} rounds {len(result['rounds'])}")
    for task in result["tasks"]:
        print(f"  task {task['name']}: |D|={task['n']} params={task['params']}"
              f" delta={task['delta']} net={task['architecture']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"trials attempted {attempted} failed {failed}")
    print(f"checks: {'all passed' if not failures else f'{len(failures)} failed'}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
