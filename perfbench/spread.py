#!/usr/bin/env python3
"""Spread report: runs one workload k times, each with another seed, and
prints every end-to-end metric's median and quartile spread.

The spread is (Q3 - Q1) / median with Q1, Q3 from
`statistics.quantiles(values, n=4)`. It is the evidence for the bounds in
BENCHMARK.json: a metric is steady when its spread stays well inside its
bound.

    python3 perfbench/spread.py --workload cold_hybrid [--runs 10]
        [--first-seed 1] [--json out.json]

Each run measures for the `run_seconds` of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed operations")
    return result["metrics"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        for name, m in run_once(args.workload, seed, bench["run_seconds"]).items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = "-" if bound is None else ("ok" if spread <= bound / 3 else
                                            "within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:<14} {med:>12.4f} {spread:>8.3f} {bound if bound is not None else '-':>6}  {verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "values": values}, indent=1))


if __name__ == "__main__":
    main()
