#!/usr/bin/env python3
"""Build and run the layered benchmark for one workload.

    python3 perfbench/run.py --workload road_solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library sources under src/ plus the binary) into the
directory named by $CARGO_TARGET_DIR, default .bench_build. The binary's
last output line is checked against BENCHMARK.json and re-printed:
untraced runs carry every end-to-end metric, traced runs every per-layer
metric (a layer the workload does not use reads 0). Traced runs also write
a Chrome trace under <build dir>/traces/. Exits non-zero, printing no
result, when the sources are missing, the build fails or the run fails.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 840.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configures once, then lets make decide what is stale."""
    binary = os.path.join(out_dir, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "src", "sssp", "solver.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   timeout=BUILD_LIMIT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    out_dir = build_dir()
    binary = build(out_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    start = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop_child(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        stdout, _ = child.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"run exceeded {RUN_LIMIT_S:.0f} s")
    if child.returncode != 0:
        fail(f"perfbench exited with {child.returncode}")
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        fail("perfbench printed no result")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    unknown = sorted(set(got) - set(units))
    if unknown:
        fail(f"perfbench reported metrics missing from BENCHMARK.json: {unknown}")
    for name, unit in units.items():
        if name not in got:
            if not args.trace:
                fail(f"end-to-end metric {name} not reported")
            got[name] = {"value": 0, "unit": unit}  # layer not on this path
        elif got[name]["unit"] != unit:
            fail(f"{name}: unit {got[name]['unit']} != {unit}")
    info["run_s"] = round(time.monotonic() - start, 3)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": {k: got[k] for k in sorted(got)}}))


if __name__ == "__main__":
    main()
