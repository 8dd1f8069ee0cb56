#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt: the COSMOS sources plus the
measuring program) under .bench_build/perfbench; later calls only check that
the build is current. Before measuring, a run waits a bounded time for a
host that other guests are not taking CPU time from (see QUIET_STEAL). The
measuring program's report lines (starting with '#') are passed through,
and the last line of standard output is its result JSON, after this script
has checked that it names exactly the metrics BENCHMARK.json lists for the
mode (end_to_end with --trace 0, per_layer with --trace 1). Build and
runtime failures exit non-zero without a result line.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Waiting for a quiet host and the program together must finish well inside
# the 180 s a run may take.
RUN_TIMEOUT_S = 170

# Other guests of a shared hypervisor take CPU time from this one in
# episodes of minutes; a run inside one reads up to twice as slow, with a p99
# several times longer. Before measuring, a run spins one CPU and waits while
# more than QUIET_STEAL of the time it wanted was stolen, for WAIT_RUN_S at
# most; all runs in one checkout wait WAIT_TOTAL_S at most, so a host that
# never quietens costs a bounded time. An idle CPU accrues no stolen time,
# hence the spin.
QUIET_STEAL = 0.05
WAIT_RUN_S = 90
WAIT_TOTAL_S = 240
WAITED = os.path.join(ROOT, ".bench_build", "perfbench-waited-s")


def fail(code, message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(2, "build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def stolen_share(seconds):
    """Share of busy host CPU time stolen by other guests while this process
    spins for `seconds`; 0 where /proc/stat is absent."""
    def ticks():
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
        return v[0] + v[1] + v[2] + v[5] + v[6], v[7]  # busy, steal
    try:
        b0, s0 = ticks()
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            pass
        b1, s1 = ticks()
    except (OSError, ValueError, IndexError):
        return 0.0
    busy, steal = b1 - b0, s1 - s0
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def wait_for_quiet_host():
    """Returns the seconds waited."""
    try:
        with open(WAITED) as f:
            waited_before = float(f.read())
    except (OSError, ValueError):
        waited_before = 0.0
    allowed = min(WAIT_RUN_S, WAIT_TOTAL_S - waited_before)
    start = time.monotonic()
    share = stolen_share(1.0)
    while share > QUIET_STEAL and time.monotonic() - start < allowed:
        time.sleep(4.0)
        share = stolen_share(1.0)
    waited = max(0.0, time.monotonic() - start - 1.0)
    if waited > 0.5:
        with open(WAITED, "w") as f:
            f.write(str(waited_before + waited))
    print(f"# host: {100 * share:.1f}% of busy CPU time stolen before "
          f"measuring, after waiting {waited:.0f} s", flush=True)
    return waited


def stop_group(proc):
    """Kills whatever is left of the program's process group (worker
    daemons included) and waits until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build()
    timeout_s = int(RUN_TIMEOUT_S - wait_for_quiet_host())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    run_dir = os.path.join(ROOT, ".bench_build", "run", str(proc.pid))
    last = None
    timed_out = False

    def on_alarm(signum, frame):
        nonlocal timed_out
        timed_out = True
        stop_group(proc)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(timeout_s)
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, end="", flush=True)
            last = line
        code = proc.wait()
    finally:
        signal.alarm(0)
        stop_group(proc)
        shutil.rmtree(run_dir, ignore_errors=True)

    if timed_out:
        fail(3, f"timed out after {timeout_s} s")
    if last is None or not last.startswith("{"):
        if last is not None:
            print(last, end="")
        fail(1, f"measuring program failed (exit {code})")
    result = json.loads(last)
    want = expected_metrics(args.trace == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(4, f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, unit mismatch {wrong}")
    print(last, end="", flush=True)
    if code != 0:  # the result check failed; the result says how
        fail(1, f"measuring program exited {code}")


if __name__ == "__main__":
    main()
