#!/usr/bin/env python3
"""Collects and compares sets of benchmark runs (README.md in this directory).

Collect one set: every listed workload once per seed, each run's full
standard output saved as <out>/<workload>-<seed>-t<trace>.txt:

    python3 perfbench/compare.py collect --out runs/a --seeds 1-10

Compare one set with itself (spread only) or two sets (A is the baseline):

    python3 perfbench/compare.py diff runs/a [runs/b]

For every workload and metric it prints the median and quartiles of each set
(statistics.quantiles, n=4), the spread (q3 - q1) / median, the shift of B's
median against A's in the metric's "worse" direction, and how many
seed-matched pairs differ by more than the metric's bound.  A spread at or
above a third of the bound, or a shift beyond the bound, is flagged; the
exit code is 1 when anything is flagged.  setup_s is exempt from the spread
flag, as in the benchmark's acceptance rule: only its median shift counts.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    ok = True
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds or spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            path = os.path.join(args.out, "%s-%d-t%d.txt" % (
                workload, seed, args.trace))
            with open(path, "w") as f:
                f.write(proc.stdout)
            result = last_json(proc.stdout)
            status = "exit %d" % proc.returncode
            if result is not None:
                status += ", correct=%s" % result["correct"]
                ok = ok and result["correct"]
            ok = ok and proc.returncode == 0
            print("%s seed %d: %s" % (workload, seed, status), flush=True)
    return 0 if ok else 1


def last_json(text):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def load_set(directory):
    """{workload: {seed: {metric: value}}} from a collected directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.txt"))):
        with open(path) as f:
            text = f.read()
        result = last_json(text)
        run = None
        for line in text.splitlines():
            if line.startswith('{"run"'):
                run = json.loads(line)["run"]
        if result is None or run is None:
            print("skipping %s: no result" % path)
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(run["workload"], {})[run["seed"]] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(base, value, better):
    """Relative amount by which `value` is worse than `base` (<= 0: not)."""
    if base == 0:
        return 0.0
    change = (value - base) / abs(base)
    return change if better == "lower" else -change


def diff(args):
    spec = load_spec()
    metrics = spec["end_to_end"] + [
        dict(m, bound=None) for m in spec["per_layer"]]
    sets = [load_set(d) for d in args.sets]
    flagged = False
    print("%-12s %-20s %5s %12s %12s %12s %7s %7s %7s %6s %s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread",
        "bound", "shift", "pairs", "flag"))
    for workload in sorted(set().union(*[s.keys() for s in sets])):
        for m in metrics:
            rows = []
            for label, runs in zip("AB", sets):
                by_seed = {seed: v[m["name"]] for seed, v in
                           runs.get(workload, {}).items() if m["name"] in v}
                if by_seed:
                    rows.append((label, by_seed))
            if not rows:
                continue
            bound = m["bound"]
            base_median = None
            for label, by_seed in rows:
                values = list(by_seed.values())
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med) if med else 0.0
                flags = []
                if bound is not None and m["name"] != "setup_s" \
                        and spread >= bound / 3:
                    flags.append("spread>=bound/3")
                shift = ""
                pairs = ""
                if base_median is None:
                    base_median = med
                else:
                    worse = worse_by(base_median, med, m["better"])
                    shift = "%+.3f" % worse
                    if bound is not None and worse > bound:
                        flags.append("shift>bound")
                    if bound is not None:
                        base = rows[0][1]
                        beyond = sum(
                            1 for seed, v in by_seed.items() if seed in base
                            and worse_by(base[seed], v, m["better"]) > bound)
                        pairs = "%d/%d" % (beyond, len(
                            [s for s in by_seed if s in base]))
                flagged = flagged or bool(flags)
                print("%-12s %-20s %5s %12.6g %12.6g %12.6g %7.4f %7s %7s "
                      "%6s %s" % (
                          workload, m["name"][:20], "%s:%d" % (label,
                                                               len(values)),
                          q1, med, q3, spread,
                          "" if bound is None else "%.3f" % bound, shift,
                          pairs, ",".join(flags)))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run workloads over seeds")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=float, default=0)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    d = sub.add_parser("diff", help="compare one or two collected sets")
    d.add_argument("sets", nargs="+", metavar="DIR")
    args = parser.parse_args()
    if args.command == "collect":
        return collect(args)
    if len(args.sets) > 2:
        parser.error("diff takes one or two sets")
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())
