"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--trace 0]

For every metric it prints the values' median, first and third
quartile (``statistics.quantiles(values, n=4)``) and the interquartile
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A spread is steady when it is below a third of the
bound; ``setup_s`` is exempt from the spread rule.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spans as sp

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        failures += result["failed"]
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: {len(args.seeds)} runs, {failures} failed operations")
    for name, vals in values.items():
        q1, q3 = sp.quartiles(vals)
        med = sp.median(vals)
        share = sp.spread(vals) if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"bound {bound}  " + ("steady" if share < bound / 3 else
                                            "within bound" if share <= bound else "WIDE")
        print(f"  {name:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {share:.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
