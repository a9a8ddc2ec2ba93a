#!/usr/bin/env python3
"""Build the fabric benchmark from source and run one workload (or all).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from anywhere inside a checkout of the repository.  The first run
configures and builds the library and the benchmark (Release) into
$CARGO_TARGET_DIR, or .bench_build at the repository root; later runs
only re-check the build.  The benchmark's last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics.  Traced runs (--trace 1) also write their span file and
per-layer table into .bench_out/ at the repository root.  The exit code
is the benchmark's: non-zero when an output gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["replay_torus16", "sim_open_fattree8", "sim_incast_closed",
             "reroute_churn"]


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build() -> str | None:
    """Configure (once) and build; returns the binary path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources next to {HERE}: nothing to build")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--parallel", jobs])
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def command(binary: str, workload: str, args: argparse.Namespace) -> list:
    return [binary, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def run_all(binary: str, args: argparse.Namespace) -> int:
    """Every workload in turn; the last line sums their results."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(command(binary, workload, args),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.workload == "all":
        return run_all(binary, args)
    return subprocess.run(command(binary, args.workload, args)).returncode


if __name__ == "__main__":
    sys.exit(main())
