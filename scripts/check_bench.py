#!/usr/bin/env python3
"""Gate bench regressions against a committed baseline.

Usage:
    check_bench.py CURRENT.json BASELINE.json --metrics m1,m2 [--tolerance 0.2]
    check_bench.py CURRENT.json BASELINE.json --fallback PREV.json --metrics ...
    check_bench.py --self-test

Both files are the flat {"metric": number} JSON written by
bench::write_bench_json. For each named metric the current value must be at
least (1 - tolerance) x the baseline value (higher = better; gate on
ratio-style metrics such as speedups, which are stable across hardware,
rather than absolute tuples/s).

Histogram-percentile metrics — names containing `_p50_us`, `_p95_us`, or
`_p99_us` (the e2e latency percentiles the benches emit) — and byte costs —
names ending in `_bytes_per_tuple`, optionally followed by a configuration
suffix such as `_2w` (the wire and journal bytes per tuple the federation
bench emits) —
are lower-is-better: the current value must be at most (1 + tolerance) x
the reference, a ceiling instead of a floor.

--fallback names the bench JSON uploaded by the *previous* CI run (same
runner fleet, hence comparable hardware). When a gated metric — or the
whole baseline file — is newly added and has no committed baseline entry
yet, the metric is gated against the fallback instead; if the fallback
lacks it too (first introduction), a clear "recording only" note is
printed and the gate passes instead of exiting 2. Hardware-dependent
absolutes (e.g. tuples per CPU-second) are gated exclusively this way: no
committed baseline entry, previous run as the reference.

Exit codes: 0 = all gated metrics pass, 1 = a metric regressed or (absent
--fallback) a metric key is missing from either file, 2 = a file is
unreadable or malformed. Every failure mode prints a one-line diagnosis —
never a bare traceback.
"""
import argparse
import json
import numbers
import re
import sys


def load_metrics(path, role):
    """Reads a flat {"metric": number} JSON file; raises SystemExit(2) with
    a clear message on unreadable files, bad JSON, or non-numeric values."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise SystemExit(f"!! cannot read {role} file {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"!! {role} file {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise SystemExit(f"!! {role} file {path}: expected a flat JSON "
                         f"object of metrics, got {type(data).__name__}")
    for name, value in data.items():
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise SystemExit(f"!! {role} file {path}: metric {name!r} is "
                             f"not a number (got {value!r})")
    return data


#: Substrings marking a latency-percentile metric (lower is better).
LATENCY_MARKERS = ("_p50_us", "_p95_us", "_p99_us")

#: A byte cost per tuple (lower is better): `_bytes_per_tuple` at the end of
#: the name or before a configuration suffix of a count and a unit
#: (`fed_journal_bytes_per_tuple_2w`, `..._4shard`).
BYTES_MARKER = re.compile(r"_bytes_per_tuple(_[0-9]+[a-z]*)?$")


def is_latency_metric(name):
    return any(marker in name for marker in LATENCY_MARKERS)


def lower_is_better(name):
    """Which way `name` regresses: up for latencies and byte costs."""
    if is_latency_metric(name):
        return "latency"
    if BYTES_MARKER.search(name):
        return "byte cost"
    return None


def check(current, baseline, metrics, tolerance, fallback=None,
          strict_missing=True):
    """Returns the list of failure messages (empty = gate passes).

    `baseline` may be None (unreadable baseline file in fallback mode).
    `fallback` is the previous run's metrics (or None). With
    strict_missing=False (fallback mode), a metric absent from both
    references is reported as newly introduced and does not fail.
    """
    failures = []
    for name in metrics:
        name = name.strip()
        ref = None
        source = "baseline"
        if baseline is not None and name in baseline:
            ref = baseline[name]
        elif fallback is not None and name in fallback:
            ref = fallback[name]
            source = "previous-run artifact"
        if ref is None:
            if strict_missing:
                msg = (f"{name}: missing from baseline (typo in --metrics, "
                       f"or stale baseline?)")
                print(f"!! {msg}")
                failures.append(msg)
            elif name not in current:
                # Absent everywhere: a typo'd --metrics name or a metric
                # the bench stopped emitting must keep failing loudly even
                # in fallback mode.
                msg = (f"{name}: missing from current results AND every "
                       f"reference (typo in --metrics, or the bench no "
                       f"longer emits it?)")
                print(f"!! {msg}")
                failures.append(msg)
            else:
                print(f"?? {name}: newly introduced — no committed baseline "
                      f"and no previous-run artifact; recording only "
                      f"(current={current[name]:.4g})")
            continue
        if name not in current:
            msg = f"{name}: missing from current results"
            print(f"!! {msg}")
            failures.append(msg)
            continue
        kind = lower_is_better(name)
        if kind is not None:
            # Latency percentiles and byte costs: lower is better, gate on
            # a ceiling.
            ceiling = (1.0 + tolerance) * ref
            ok = current[name] <= ceiling
            print(f"{'ok' if ok else '!!'} {name}: "
                  f"current={current[name]:.4g} {source}={ref:.4g} "
                  f"ceiling={ceiling:.4g} ({kind}: lower is better)")
            if not ok:
                failures.append(f"{name}: {current[name]:.4g} > ceiling "
                                f"{ceiling:.4g} (vs {source})")
            continue
        floor = (1.0 - tolerance) * ref
        ok = current[name] >= floor
        print(f"{'ok' if ok else '!!'} {name}: current={current[name]:.4g} "
              f"{source}={ref:.4g} floor={floor:.4g}")
        if not ok:
            failures.append(f"{name}: {current[name]:.4g} < floor "
                            f"{floor:.4g} (vs {source})")
    return failures


def self_test():
    """Unit-style checks of the gate logic and every failure mode, run by
    CI so a broken gate script cannot silently pass benches."""
    import os
    import subprocess
    import tempfile

    script = os.path.abspath(__file__)

    def run(args):
        return subprocess.run([sys.executable, script, *args],
                              capture_output=True, text=True)

    failures = []
    cases = []

    def expect(label, proc, code, needle=""):
        cases.append(label)
        out = proc.stdout + proc.stderr
        if proc.returncode != code:
            failures.append(f"{label}: exit {proc.returncode}, want {code}\n"
                            f"{out}")
        elif needle and needle not in out:
            failures.append(f"{label}: output lacks {needle!r}\n{out}")
        else:
            print(f"ok {label}")

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, content):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                f.write(content)
            return path

        good = write("good.json", '{"speedup": 2.0, "identical": 1}')
        fast = write("fast.json", '{"speedup": 3.0, "identical": 1}')
        slow = write("slow.json", '{"speedup": 1.0, "identical": 1}')
        sparse = write("sparse.json", '{"identical": 1}')
        broken = write("broken.json", '{"speedup": ')
        listy = write("listy.json", '[1, 2]')
        texty = write("texty.json", '{"speedup": "fast"}')

        expect("pass within tolerance", run([good, fast, "--metrics",
                                             "speedup", "--tolerance",
                                             "0.5"]), 0, "ok speedup")
        expect("regression fails", run([slow, good, "--metrics", "speedup",
                                        "--tolerance", "0.2"]), 1,
               "!! speedup")
        expect("metric missing from baseline", run([good, sparse,
                                                    "--metrics", "speedup"]),
               1, "missing from baseline")
        expect("metric missing from current", run([sparse, good,
                                                   "--metrics", "speedup"]),
               1, "missing from current")
        expect("baseline file missing", run([good,
                                             os.path.join(tmp, "no.json"),
                                             "--metrics", "speedup"]), 2,
               "cannot read baseline")
        expect("malformed json", run([good, broken, "--metrics", "speedup"]),
               2, "not valid JSON")
        expect("non-object json", run([good, listy, "--metrics", "speedup"]),
               2, "expected a flat JSON object")
        expect("non-numeric metric", run([good, texty, "--metrics",
                                          "speedup"]), 2, "not a number")
        expect("multiple metrics", run([good, good, "--metrics",
                                        "speedup,identical"]), 0,
               "ok identical")

        # Latency-percentile keys (lower is better): a faster current run
        # passes, a slower one beyond the ceiling fails, and the ceiling
        # honors --tolerance.
        lat_ref = write("lat_ref.json",
                        '{"e2e_p50_us_run": 100.0, "e2e_p99_us_run": 400.0}')
        lat_fast = write("lat_fast.json",
                         '{"e2e_p50_us_run": 80.0, "e2e_p99_us_run": 300.0}')
        lat_slow = write("lat_slow.json",
                         '{"e2e_p50_us_run": 150.0, "e2e_p99_us_run": 390.0}')
        expect("latency improvement passes",
               run([lat_fast, lat_ref, "--metrics",
                    "e2e_p50_us_run,e2e_p99_us_run", "--tolerance", "0.2"]),
               0, "lower is better")
        expect("latency regression fails",
               run([lat_slow, lat_ref, "--metrics", "e2e_p50_us_run",
                    "--tolerance", "0.2"]), 1, "!! e2e_p50_us_run")
        expect("latency within tolerance passes",
               run([lat_slow, lat_ref, "--metrics", "e2e_p99_us_run",
                    "--tolerance", "0.2"]), 0, "ok e2e_p99_us_run")
        expect("latency key gates via fallback",
               run([lat_slow, sparse, "--fallback", lat_ref, "--metrics",
                    "e2e_p50_us_run", "--tolerance", "0.2"]), 1,
               "previous-run artifact")

        # Byte costs per tuple (lower is better), with or without a
        # configuration suffix: a drop passes, growth beyond the ceiling
        # fails, growth within it passes, and a name where the marker is
        # followed by another word still gates as higher-is-better.
        bytes_ref = write("bytes_ref.json",
                          '{"fed_wire_bytes_per_tuple_2w": 800.0, '
                          '"journal_bytes_per_tuple": 400.0, '
                          '"wire_bytes_per_tuple_ratio": 2.0}')
        bytes_drop = write("bytes_drop.json",
                           '{"fed_wire_bytes_per_tuple_2w": 300.0, '
                           '"journal_bytes_per_tuple": 100.0, '
                           '"wire_bytes_per_tuple_ratio": 2.0}')
        bytes_grow = write("bytes_grow.json",
                           '{"fed_wire_bytes_per_tuple_2w": 1200.0, '
                           '"journal_bytes_per_tuple": 440.0, '
                           '"wire_bytes_per_tuple_ratio": 1.0}')
        expect("byte drop passes",
               run([bytes_drop, bytes_ref, "--metrics",
                    "fed_wire_bytes_per_tuple_2w,journal_bytes_per_tuple",
                    "--tolerance", "0.2"]), 0,
               "byte cost: lower is better")
        expect("suffixed byte growth fails",
               run([bytes_grow, bytes_ref, "--metrics",
                    "fed_wire_bytes_per_tuple_2w", "--tolerance", "0.2"]), 1,
               "!! fed_wire_bytes_per_tuple_2w")
        expect("unsuffixed byte growth within tolerance passes",
               run([bytes_grow, bytes_ref, "--metrics",
                    "journal_bytes_per_tuple", "--tolerance", "0.2"]), 0,
               "ok journal_bytes_per_tuple")
        expect("unsuffixed byte growth beyond tolerance fails",
               run([bytes_grow, bytes_ref, "--metrics",
                    "journal_bytes_per_tuple", "--tolerance", "0.05"]), 1,
               "!! journal_bytes_per_tuple")
        expect("marker before another word stays higher-is-better",
               run([bytes_grow, bytes_ref, "--metrics",
                    "wire_bytes_per_tuple_ratio", "--tolerance", "0.2"]), 1,
               "floor=")

        # --fallback: newly added metric keys gate against the previous
        # run's artifact; first introductions record instead of failing.
        prev = write("prev.json", '{"speedup": 2.0, "fresh_metric": 10.0}')
        cur2 = write("cur2.json",
                     '{"speedup": 2.0, "identical": 1, "fresh_metric": 9.0}')
        slow2 = write("slow2.json",
                      '{"speedup": 2.0, "identical": 1, "fresh_metric": 2.0}')
        expect("fallback gates newly added key",
               run([cur2, good, "--fallback", prev, "--metrics",
                    "speedup,fresh_metric", "--tolerance", "0.2"]), 0,
               "previous-run artifact=10")
        expect("fallback catches regression on new key",
               run([slow2, good, "--fallback", prev, "--metrics",
                    "fresh_metric", "--tolerance", "0.2"]), 1,
               "previous-run artifact")
        expect("first introduction records only",
               run([cur2, good, "--fallback",
                    os.path.join(tmp, "no-prev.json"), "--metrics",
                    "speedup,fresh_metric"]), 0, "newly introduced")
        expect("typo'd metric still fails in fallback mode",
               run([cur2, good, "--fallback",
                    os.path.join(tmp, "no-prev.json"), "--metrics",
                    "speedup,typo_metric"]), 1,
               "missing from current results AND every reference")
        expect("missing baseline file with fallback",
               run([cur2, os.path.join(tmp, "no-baseline.json"),
                    "--fallback", prev, "--metrics", "speedup"]), 0,
               "newly added bench")
        expect("missing baseline file without fallback still exits 2",
               run([cur2, os.path.join(tmp, "no-baseline.json"),
                    "--metrics", "speedup"]), 2, "cannot read baseline")

    if failures:
        print("\nself-test FAILED:")
        for f in failures:
            print(f" - {f}")
        return 1
    print(f"self-test passed ({len(cases)} cases)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", nargs="?")
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("--metrics",
                    help="comma-separated metric names to gate on")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional regression (default 0.20)")
    ap.add_argument("--fallback",
                    help="previous-run bench JSON consulted for metrics "
                         "absent from the committed baseline; missing or "
                         "unreadable fallback files are treated as empty")
    ap.add_argument("--self-test", action="store_true",
                    help="run the script's own unit tests and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.current or not args.baseline or not args.metrics:
        ap.error("CURRENT, BASELINE and --metrics are required "
                 "(or use --self-test)")

    current = load_metrics(args.current, "current")
    fallback = None
    if args.fallback:
        try:
            fallback = load_metrics(args.fallback, "fallback")
        except SystemExit as e:
            # The previous run may predate this bench or its artifact may
            # be gone; that must not break the gate.
            print(f"## no usable previous-run artifact ({e.code})")
    try:
        baseline = load_metrics(args.baseline, "baseline")
    except SystemExit:
        if args.fallback is None:
            raise  # legacy strict behavior: unreadable baseline exits 2
        print(f"## baseline {args.baseline} not found — newly added bench, "
              f"gating against the previous-run artifact only")
        baseline = None
    failures = check(current, baseline, args.metrics.split(","),
                     args.tolerance, fallback=fallback,
                     strict_missing=args.fallback is None)
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit as e:
        # argparse exits 2 on usage errors; our load failures carry a
        # message string — print it and exit 2 so CI logs stay readable.
        if isinstance(e.code, str):
            print(e.code)
            sys.exit(2)
        raise
