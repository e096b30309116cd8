#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload scan_full --seed 1 --seconds 15 --trace 0

Builds the benchmark binary from this checkout's sources, runs one workload
in its own process and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  With --trace 1 the workload runs twice, untraced then
traced, each in its own process; the metrics are the per-layer metrics of
the traced run plus trace_overhead_pct, and the two runs must agree on the
result digest.

The lines before the last one carry the run's host facts (core count, CPU
model, cache sizes, compiler, build type, commit, THP mode) and a table of
every value frbench measured.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("scan_full", "scan_lossy", "daemon_jobs")
OPTIMIZED_FLAG = re.compile(r"-O[23s]\b")
# Per-layer metric prefixes of the layers each workload bypasses: they are
# reported as 0.  Any other per-layer metric frbench leaves out is an error.
BYPASSED = {"scan_full": ("svc.", "io."),
            "scan_lossy": ("svc.", "io."),
            "daemon_jobs": ("core.", "sim.")}
RUN_TIMEOUT_S = 170
# The workload processes allocate through glibc malloc with transparent huge
# pages advised (README.md, "Host speed").
FRBENCH_ENV = {"GLIBC_TUNABLES": "glibc.malloc.hugetlb=1"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(out_dir):
    """Configures (once) and builds frbench; returns its path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        return None
    configure = [cmake, "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(out_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (configure,
                [cmake, "--build", out_dir, "--target", "frbench", "-j", jobs]):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out_dir, "frbench")


def host_facts(frbench_run):
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "cpu_model": "unknown",
             "compiler": frbench_run.get("compiler", "unknown"),
             "build_type": frbench_run.get("build_type", "unknown"),
             "cxx_flags": frbench_run.get("cxx_flags", ""),
             "commit": "unknown"}
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_root)):
            path = os.path.join(cache_root, index)
            try:
                with open(os.path.join(path, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(path, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(path, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            if level in ("2", "3") and kind != "Instruction":
                facts["l%s_per_cpu" % level] = size
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            facts["commit"] = proc.stdout.strip()
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            facts["transparent_hugepage"] = f.read().strip()
    except OSError:
        facts["transparent_hugepage"] = "unknown"
    facts["optimized"] = bool(OPTIMIZED_FLAG.search(facts["cxx_flags"]))
    return facts


def run_frbench(binary, args, trace, work_root, deadline):
    """Runs one workload process in a scratch directory; returns its record,
    or None (and says why) if it failed or missed the deadline."""
    work = os.path.join(work_root, "%s-%d-%d-t%d" % (
        args.workload, args.seed, os.getpid(), trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(work_root, "%s-%d-spans.json" % (
            args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, **FRBENCH_ENV),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: frbench did not finish within %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log("perfbench: frbench exited with %d" % proc.returncode)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def overhead_pct(workload, untraced, traced):
    """How much slower the traced run was, in percent of the untraced one."""
    u, t = untraced["values"], traced["values"]
    if workload == "daemon_jobs":
        return 100.0 * (u["jobs_per_s"] / t["jobs_per_s"] - 1.0)
    return 100.0 * (t["scan_wall_s"] / u["scan_wall_s"] - 1.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    work_root = os.path.join(os.path.dirname(out_dir), "runs")
    os.makedirs(work_root, exist_ok=True)

    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    runs = []
    for trace in range(args.trace + 1):
        record = run_frbench(binary, args, trace, work_root, deadline)
        if record is None:
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        runs.append(record)
    untraced = runs[0]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    if args.trace and runs[1]["digest"] != untraced["digest"]:
        failed += 1
        problems.append("traced and untraced runs disagree on the result")

    values = dict(runs[-1]["values"])
    if args.trace:
        values["trace_overhead_pct"] = overhead_pct(args.workload, untraced,
                                                    runs[1])
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    facts = host_facts(untraced)
    if not facts["optimized"]:
        log("perfbench: WARNING: frbench is not an optimized build (%s %s)"
            % (facts["build_type"], facts["cxx_flags"]))
    print(json.dumps({"run": {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "digest": untraced["digest"],
                              "elapsed_s": time.monotonic() - started,
                              "problems": problems, "host": facts}}))
    for name in sorted(values):
        print("  %-30s %.6g" % (name, values[name]))
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values and not (
                args.trace and name.startswith(BYPASSED[args.workload])):
            log("perfbench: frbench did not report %s" % name)
            return 1
        metrics[name] = {"value": values.get(name, 0.0), "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
