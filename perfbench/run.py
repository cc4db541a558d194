#!/usr/bin/env python3
"""Builds the AplusDB benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload serve|analytics|ingest --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); each run works in its own directory under
.bench_runs, removed when the run ends. The last line of stdout is the
run's result as one JSON object. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "analytics", "ingest")
# The checks of each workload that --perturb K can corrupt, numbered from 1:
# serve's response digests; analytics' tuned-vs-D counts, baseline matcher
# counts and maintained-vs-fresh counts; ingest's in-phase bounds and
# post-phase answers.
CHECKS = {"serve": 1, "analytics": 3, "ingest": 2}
RUN_TIMEOUT_S = 170

# Every knob the engine reads from the environment, pinned so the
# caller's shell cannot change a result. Any other APLUS_* is removed.
PINNED_ENV = {
    "APLUS_THREADS": "1",
    "APLUS_SIMD": "auto",
    "APLUS_SEGMENT_COMPRESS": "auto",
    "APLUS_SEGMENT_MADVISE": "auto",
    "APLUS_SERVER_BATCH": "on",
    "APLUS_MAX_CONCURRENT": "0",
    "APLUS_ADMISSION_QUEUE": "0",
    "APLUS_ADMISSION_TIMEOUT_MS": "0",
    "APLUS_QUERY_TIMEOUT_MS": "0",
    "APLUS_MEM_CAP": "0",
    "APLUS_GROUPBY_MEM_CAP": "0",
    "APLUS_MEM_CAP_TOTAL": "0",
    "APLUS_FAULT": "",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark and aplusd; returns the build dir or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("run.py: the engine's sources are not in this checkout")
        return None
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "aplus_perfbench", "aplusd"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build step failed: " + " ".join(step))
            return None
    return out


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("APLUS_")}
    env.update(PINNED_ENV)
    return env


def run_binary(out, workload, seed, seconds, trace, size=1.0, perturb=0):
    """Runs one workload in its own run directory; returns (exit code, stdout lines)."""
    runs = os.path.join(ROOT, ".bench_runs")
    run_dir = os.path.join(runs, "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [
        os.path.join(out, "aplus_perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
        "--run-dir", run_dir,
        "--aplusd", os.path.join(out, "aplusd"),
        "--size", str(size),
        "--perturb", str(perturb),
    ]
    # A session of its own, so a timeout can stop the binary and the
    # aplusd child it started together.
    proc = subprocess.Popen(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=5)
                break
            except subprocess.TimeoutExpired:
                continue
        proc.wait()
        stdout = ""
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass
    return proc.returncode, stdout.splitlines()


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def complete(result, trace):
    """Checks the result against BENCHMARK.json; per-layer metrics of layers
    the workload never calls are reported as 0. Returns False on a mismatch."""
    metrics = result["metrics"]
    declared = declared_metrics(trace)
    names = {name for name, _ in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        log("run.py: metrics missing from BENCHMARK.json: %s" % ", ".join(unknown))
        return False
    for name, unit in declared:
        if name in metrics:
            if metrics[name]["unit"] != unit:
                log("run.py: %s has unit %s, BENCHMARK.json says %s"
                    % (name, metrics[name]["unit"], unit))
                return False
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            log("run.py: the workload did not report %s" % name)
            return False
    result["metrics"] = {name: metrics[name] for name, _ in declared}
    return True


def self_check(out):
    """Small runs of each workload: a clean run must pass its checks, and a
    run with one expectation of any one check perturbed must be reported
    incorrect."""
    ok = True
    for workload in WORKLOADS:
        for perturb in range(CHECKS[workload] + 1):
            code, lines = run_binary(out, workload, seed=1, seconds=1, trace=False,
                                     size=0.1, perturb=perturb)
            result = json.loads(lines[-1]) if lines else {}
            correct = result.get("correct")
            expected = not perturb
            passed = correct is expected and (code == 0) is expected
            ok = ok and passed
            print("self-check %-9s perturb=%d: correct=%s exit=%d -> %s"
                  % (workload, perturb, correct, code, "ok" if passed else "UNEXPECTED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    out = build()
    if out is None:
        return 1
    log("run.py: build ready in %.1f s" % (time.monotonic() - start))
    if args.self_check:
        return 0 if self_check(out) else 1

    code, lines = run_binary(out, args.workload, args.seed, args.seconds, args.trace == 1)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: the benchmark printed no result")
        return 1
    for line in lines[:-1]:
        print(line)
    if not complete(result, args.trace == 1):
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
