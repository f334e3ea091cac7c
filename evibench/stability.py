#!/usr/bin/env python3
"""Runs the benchmark in two sets and reports whether the sets agree.

Run from the root of a checkout:

    python3 evibench/stability.py

Each of the two sets runs every workload of ``BENCHMARK.json`` ten times,
each time with another seed (set 1 seeds 1-10, set 2 seeds 11-20), with the
command and run length of ``BENCHMARK.json``. For every end-to-end metric and
workload it prints both medians, each set's interquartile spread as a share
of its median, the change of the second median against the first, and
whether they agree: both spreads and the size of the change, in either
direction, within the metric's bound. Failed operations must be the same
share of attempted ones in both sets. Every result goes to
``evibench/out/stability.json``; the exit status is 0 only if all agree.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
SETS = 2


def one_run(spec, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    *log, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    result["log"] = log
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results: dict = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for workload in workloads:
            for k in range(RUNS):
                seed = s * RUNS + k + 1
                run = one_run(spec, workload, seed)
                results[workload][s].append(run)
                values = " ".join(
                    f"{name}={m['value']:.6g}" for name, m in run["metrics"].items()
                )
                print(f"set {s + 1} {workload} seed {seed}: {values}"
                      f" correct={run['correct']} failed={run['failed']}/{run['attempted']}"
                      f" wall={run['wall_s']:.1f}s", flush=True)

    print()
    print(f"machine: {platform.machine()} {platform.processor() or ''},"
          f" python {platform.python_version()}, run_seconds {spec['run_seconds']},"
          f" {RUNS} runs per set")
    header = f"{'workload':<10} {'metric':<17} {'median 1':>12} {'median 2':>12}" \
             f" {'iqr 1':>7} {'iqr 2':>7} {'change':>7} {'bound':>6}  agree"
    print(header)
    all_agree = True
    for workload in workloads:
        sets = results[workload]
        for name, metric in bounds.items():
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians.append(q2)
                spreads.append((q3 - q1) / q2)
            bound = metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (medians[-1] - medians[0]) / medians[0]
            ok = abs(change) <= bound and all(spread <= bound for spread in spreads)
            all_agree &= ok
            cells = " ".join(f"{m:>12.6g}" for m in medians).ljust(25)
            iqrs = " ".join(f"{x:>7.1%}" for x in spreads).ljust(15)
            print(f"{workload:<10} {name:<17} {cells} {iqrs} {change:>7.1%}"
                  f" {bound:>6.0%}  {'yes' if ok else 'NO'}")
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets}
        failed_ok = len(shares) == 1 and all(r["correct"] for runs in sets for r in runs)
        all_agree &= failed_ok
        print(f"{workload:<10} {'failed share':<17} {' '.join(f'{x:.3g}' for x in shares):>25}"
              f" {'':>31}  {'yes' if failed_ok else 'NO'}")

    print()
    print("pooled over both sets: median [q1, q3] p90, per metric")
    for workload in workloads:
        runs = [r for runs in results[workload] for r in runs]
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            p90 = statistics.quantiles(values, n=10)[-1]
            print(f"{workload:<10} {name:<17} {q2:.6g} [{q1:.6g}, {q3:.6g}] {p90:.6g}"
                  f" {metric['unit']} (n={len(values)})")
        walls = [r["wall_s"] for r in runs]
        print(f"{workload:<10} {'wall per run':<17} median {statistics.median(walls):.1f} s,"
              f" max {max(walls):.1f} s")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "stability.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    print("\nall agree" if all_agree else "\nNOT all agree")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
