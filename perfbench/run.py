#!/usr/bin/env python3
"""Runs one workload of gila's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the runner (perfbench/, a Cargo package of its own that depends
on the repository's crates by path) in release mode, then runs it from
the repository root. The runner prints a metric table and, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
Build output goes to $CARGO_TARGET_DIR (default: .bench_build);
journals and span files go to .bench_build/perfbench-runs.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

# A run measures for --seconds and then finishes its pass; the slowest
# pass (prove-memory) takes about 25 s on a 2-CPU host.
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or root / ".bench_build")
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = target / "release" / "gila-perfbench"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(root / ".bench_build" / "perfbench-runs"),
           "--benchmark", str(root / "BENCHMARK.json")]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
