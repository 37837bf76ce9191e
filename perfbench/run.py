#!/usr/bin/env python3
"""Build and run the wsflow end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake package compiled against ../src) in Release mode
under $CARGO_TARGET_DIR (default .bench_build), runs one workload and
relays its report. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The metrics are the ones
BENCHMARK.json lists for the mode: end_to_end with --trace 0, per_layer with
--trace 1. A traced run prints only the layer metrics its workload computes;
the other listed names are filled in with 0 here, and a name or unit the
list does not hold is an error. The exit code is the benchmark's: 0 when
every output check passed, non-zero otherwise, and non-zero without a result
when the sources are missing or do not build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("wsflow sources (src/) not found next to perfbench/")
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "--target", "perfbench",
                 "--parallel", BUILD_JOBS]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} did not finish: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} failed")
    return build_dir / "perfbench"


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json lists for this mode, in order."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the root of the checkout")
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete_metrics(got, declared, trace):
    """The declared metrics, in declared order, from the binary's `got`.

    Returns None when `got` holds a name or unit that is not declared, or
    (untraced) misses a declared metric."""
    if any(declared.get(name) != m["unit"] for name, m in got.items()):
        return None
    if not trace and set(got) != set(declared):
        return None
    return {name: got.get(name, {"value": 0, "unit": unit})
            for name, unit in declared.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    declared = declared_metrics(args.trace)
    binary = build(build_dir / "perfbench")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")

    lines = done.stdout.rstrip("\n").split("\n")
    problem = None
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problem = "result line has unexpected keys"
        else:
            result["metrics"] = complete_metrics(result["metrics"], declared,
                                                 args.trace)
            if result["metrics"] is None:
                problem = "metrics differ from BENCHMARK.json"
    except (ValueError, KeyError, TypeError, AttributeError):
        problem = "no result line"
    if problem is not None:
        print(done.stdout, end="")
        fail(f"{problem} (exit code {done.returncode})")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
