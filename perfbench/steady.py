"""Steadiness check: run the benchmark on several seeds, one run at a time,
and print each end-to-end metric's median and its quartile spread
(Q3 - Q1, as Python's statistics.quantiles(n=4) gives them) as a share of
the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload radical-q --seeds 1-10

Run from the root of a checkout.  A spread below a third of the bound is
the target; setup_s is reported but has no spread target.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(lo, hi + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print("   ", proc.stderr.strip().splitlines()[0][-60:], flush=True)
            shares.add((result["failed"], result["attempted"]))
            line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} ({took:.0f} s): correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        ratios = {f / a for f, a in shares}
        print(f"{workload}: failed share {sorted(ratios)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:12s} median {med:.4f}  spread {(q3 - q1) / med:.4f}  "
                  f"bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
