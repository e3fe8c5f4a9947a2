#!/usr/bin/env python3
"""Checks that gila's benchmark is steady enough to judge a change by.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

For each workload it makes two sets of untraced runs of the same build
(set A with seeds 1..N, set B with seeds 1001..1000+N), then prints for
every end-to-end metric each set's median and quartiles, the spread
(quartile distance over median), and whether set B's median is within
the metric's bound of set A's, in either direction. A metric whose
spread exceeds its bound is marked unresolved: at that spread the
benchmark cannot tell a change of the bound's size from noise. Exits 1
if any run is incorrect, fails an operation, or any metric is
unresolved or disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summarize(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to check (repeatable; default all)")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workload or names:
        sets = []
        for base in (1, 1001):
            results = []
            for seed in range(base, base + args.runs):
                r = run_once(workload, seed, args.seconds)
                if not r["correct"] or r["failed"]:
                    print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}")
                    ok = False
                results.append(r)
                print(f"  {workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
            sets.append(results)
        print(f"\n{workload}")
        print(f"  {'metric':<14} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7}"
              f" {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in s]) for s in sets]
            for label, (q1, med, q3, spread) in zip("AB", stats):
                print(f"  {name:<14} {label:>3} {q1:>12.6g} {med:>12.6g} {q3:>12.6g}"
                      f" {spread:>7.3f} {bound:>6}")
            worse = (stats[1][1] - stats[0][1]) / stats[0][1]
            if m["better"] == "higher":
                worse = -worse
            verdict = ("unresolved" if max(s[3] for s in stats) > bound
                       else "disagree" if abs(worse) > bound
                       else "agree")
            ok &= verdict == "agree"
            print(f"  {name:<14}     B vs A: {worse:+.3f} worse -> {verdict}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
