#!/usr/bin/env python3
"""Summarize repeated benchmark runs and flag unsteady metrics.

    python3 perfbench/summarize.py OUTPUT...

Each OUTPUT is a file holding the standard output of one run of
perfbench/run.py: its '# perfbench workload=... seed=...' line names the
workload, and its last line is the result JSON. For every workload and
metric the summary prints the run count, median, quartiles (as
statistics.quantiles(values, n=4) gives them), min and max, and the spread:
the distance between the quartiles as a share of the median. A metric whose
spread exceeds its BENCHMARK.json bound is flagged 'OVER'; one above a third
of its bound is marked 'near'. Runs whose result check failed are listed.
Each workload also gets the median and largest share of host CPU time that
other guests of the hypervisor took during a run ('# host steal' lines):
a run with a high share was slowed by other tenants, not by the program.

The exit code is 1 when any bound is exceeded or any run failed.
"""

import argparse
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HEADER = re.compile(r"^# perfbench workload=(\S+) seed=(\d+) .*trace=(\d)")
STEAL = re.compile(r"^# host steal: ([0-9.]+)%")


def parse_run(path):
    workload = seed = trace = steal = None
    result = None
    with open(path) as f:
        lines = f.read().splitlines()
    for line in lines:
        m = HEADER.match(line)
        if m:
            workload, seed, trace = m.group(1), int(m.group(2)), m.group(3)
        m = STEAL.match(line)
        if m:
            steal = float(m.group(1))
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return workload, seed, trace, steal, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("outputs", nargs="+")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    groups = {}  # (workload, trace) -> metric -> values
    steals = {}  # (workload, trace) -> [(steal %, seed)]
    failures = []
    for path in args.outputs:
        workload, seed, trace, steal, result = parse_run(path)
        if result is None:
            failures.append(f"{path}: no result line")
            continue
        if not result["correct"] or result["failed"]:
            failures.append(f"{path}: correct={result['correct']} "
                            f"failed={result['failed']}/{result['attempted']}")
        if steal is not None:
            steals.setdefault((workload or path, trace), []).append((steal, seed))
        metrics = groups.setdefault((workload or path, trace), {})
        for name, v in result["metrics"].items():
            metrics.setdefault(name, []).append(v["value"])

    over = False
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':32} {'runs':>4} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        for name, values in metrics.items():
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = meta.get(name, {}).get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag, over = "OVER", True
            elif bound is not None and spread > bound / 3:
                flag = "near"
            print(f"  {name:32} {len(values):4d} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {min(values):12.6g} {max(values):12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6} "
                  f"{flag}")
        if (workload, trace) in steals:
            s = steals[(workload, trace)]
            worst, seed = max(s)
            print(f"  host steal (CPU time other guests took): median "
                  f"{statistics.median(v for v, _ in s):.2f}%, max "
                  f"{worst:.2f}% (seed {seed})")
    for f in failures:
        print(f"FAILED RUN {f}")
    sys.exit(1 if over or failures else 0)


if __name__ == "__main__":
    main()
