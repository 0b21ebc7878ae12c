#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The first run builds the nsrf
libraries, nsrf_serve, nsrf_explore and the benchmark driver into
.bench_build (later runs only check that the build is current).

The last line of standard output is one JSON object with exactly the
keys correct, attempted, failed and metrics.  Untraced runs
(--trace 0) report every end_to_end metric of BENCHMARK.json, traced
runs (--trace 1) every per_layer metric.  The lines before it give the
provenance (commit, CPU model, nproc, kernel, compiler, SIMD level,
seed), the sample count behind each timing, and the driver's notes.
Each result is also appended, with its provenance, to
.bench_build/perfbench-results.jsonl.  Results are comparable only
with results from the same host.  A run taken while the hypervisor
stole more than a tenth of the CPUs is run once more, within a time
budget per checkout, and the quieter of the two is reported.

--self-check runs every workload at a tiny size, traced and untraced,
checks that every name in BENCHMARK.json is printed with its unit,
and checks that a deliberately wrong pinned digest is counted as a
failure.  See perfbench/RATIONALE.md for what each workload measures.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DRIVER_TIMEOUT_S = 170
# A run during which the hypervisor stole more than this share of the
# CPUs is taken once more and the quieter of the two reported, while
# this checkout has spent less than RETRY_BUDGET_S on such second runs
# and the first took under RETRY_MAX_RUN_S (so both fit the time a
# run may take).
MAX_STEAL = 0.10
RETRY_BUDGET_S = 240
RETRY_MAX_RUN_S = 60
RETRY_LOG = os.path.join(BUILD, "perfbench-retry-seconds")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then bring the build up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nsrf", "sim",
                                       "simulator.hh")):
        fail("no nsrf source tree next to perfbench/ (run from the "
             "root of a checkout)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 cwd=ROOT)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))


def source_identity():
    """The git commit, or a digest of the sources when not a repo."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def compiler():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    cxx = "c++"
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return cxx


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def run_driver(workload, seed, seconds, trace, extra=()):
    work = os.path.join(BUILD, "work-" + workload)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work] + list(extra)
    steal0, total0 = cpu_ticks()
    # A session of its own, so a timeout can stop the driver together
    # with the daemons and tools it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish in %d s" % (workload, DRIVER_TIMEOUT_S))
    steal1, total1 = cpu_ticks()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver failed (%d):\n%s" % (proc.returncode, stderr[-3000:]))
    result = json.loads(lines[-1])
    # CPU time the hypervisor gave to other guests during the run: a
    # noisy-neighbour marker, kept with the result's provenance.
    if total1 > total0:
        result.setdefault("info", {})["steal_frac"] = "%.4f" % (
            (steal1 - steal0) / (total1 - total0))
    return result


def steal_of(result):
    return float(result.get("info", {}).get("steal_frac", 0))


def measure(workload, seed, seconds, trace):
    """One run, and a second one if the first was taken under heavy
    hypervisor steal.  A run with a failed operation is never replaced."""
    start = time.monotonic()
    first = run_driver(workload, seed, seconds, trace)
    spent = time.monotonic() - start
    try:
        with open(RETRY_LOG) as f:
            used = float(f.read() or 0)
    except (OSError, ValueError):
        used = 0.0
    if (steal_of(first) <= MAX_STEAL or first["failed"]
            or not first["correct"] or spent > RETRY_MAX_RUN_S
            or used + spent > RETRY_BUDGET_S):
        return first
    start = time.monotonic()
    again = run_driver(workload, seed, seconds, trace)
    with open(RETRY_LOG, "w") as f:
        f.write("%.1f" % (used + time.monotonic() - start))
    if again["failed"] or not again["correct"]:
        chosen, other = again, first
    elif steal_of(again) < steal_of(first):
        chosen, other = again, first
    else:
        chosen, other = first, again
    chosen["info"]["rejected_steal_frac"] = "%.4f" % steal_of(other)
    return chosen


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def select_metrics(result, spec, trace):
    """Exactly the declared metrics, each with its declared unit."""
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    missing = [n for n in want if n not in got]
    wrong = [n for n in want if n in got and got[n]["unit"] != want[n]]
    if missing or wrong:
        fail("driver output does not match BENCHMARK.json: missing %s, "
             "unit mismatch %s" % (missing, wrong))
    return {n: {"value": got[n]["value"], "unit": want[n]} for n in want}


def report(args, result, spec):
    provenance = {
        "commit": source_identity(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": compiler(),
        "simd": result.get("info", {}).get("simd", "unknown"),
        "steal_frac": result.get("info", {}).get("steal_frac"),
        "rejected_steal_frac":
            result.get("info", {}).get("rejected_steal_frac"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
    }
    metrics = select_metrics(result, spec, args.trace)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for key, value in sorted(result.get("info", {}).items()):
        print("info %s = %s" % (key, value))
    for note in result.get("notes", []):
        print("note " + note)
    samples = result.get("samples", {})
    for name, m in metrics.items():
        n = samples.get(name)
        print("%-32s %16.6g %-12s%s" % (name, m["value"], m["unit"],
                                        " (n=%d)" % n if n else ""))
    print("operations %d attempted, %d failed" % (result["attempted"],
                                                 result["failed"]))
    line = {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}
    with open(os.path.join(BUILD, "perfbench-results.jsonl"), "a") as f:
        f.write(json.dumps(dict(line, provenance=provenance,
                                samples=samples), sort_keys=True) + "\n")
    print(json.dumps(line))


def self_check(spec):
    """Tiny run of every workload, both modes, plus the pin check."""
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            result = run_driver(workload, 7, 2, trace, ["--tiny",
                                                        "--setups", "1"])
            want = expected_metrics(spec, trace)
            for name, unit in want.items():
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    problems.append("%s trace=%d: %s not printed as %s"
                                    % (workload, trace, name, unit))
            if not result["correct"] or result["failed"]:
                problems.append("%s trace=%d: %d of %d operations failed: "
                                "%s" % (workload, trace, result["failed"],
                                        result["attempted"],
                                        result.get("notes")))
            print("self-check %-15s trace=%d: %d operations, %d failed"
                  % (workload, trace, result["attempted"],
                     result["failed"]))
        corrupt = run_driver(workload, 7, 1, False,
                             ["--tiny", "--setups", "1", "--corrupt-pin"])
        if corrupt["correct"] or corrupt["failed"] == 0:
            problems.append("%s: a wrong pinned digest was not counted "
                            "as a failure" % workload)
        else:
            print("self-check %-15s wrong pin: %d of %d failed, as it must"
                  % (workload, corrupt["failed"], corrupt["attempted"]))
    for p in problems:
        print("PROBLEM " + p)
    print("self-check " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("no BENCHMARK.json at " + ROOT)
    spec = load_spec()
    build()
    if args.self_check:
        sys.exit(self_check(spec))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    report(args, result, spec)


if __name__ == "__main__":
    main()
