"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 routebench/spread.py --workload batch-mixed --seeds 1 2 3 4 5

Spread is the inter-quartile distance over the median of the per-run
values (``statistics.quantiles(values, n=4)``); each end-to-end metric is
compared with its bound from ``BENCHMARK.json``.  Runs go one after the
other so they do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)

from routebench.stats import spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        started = time.perf_counter()
        proc = subprocess.run(
            bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds or bench["run_seconds"]),
                "--trace", str(args.trace),
            ],
            cwd=str(ROOT), capture_output=True, text=True, timeout=600,
        )
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        prov = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
        values.setdefault("(host_steal_frac)", []).append(
            prov["host_steal_frac"])
        for name, value in prov["notes"].items():
            if name.startswith(("wall.", "refclock.")):
                values.setdefault(f"({name})", []).append(value)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
          "  values")
    worst = 0.0
    for name, series in sorted(values.items()):
        share = spread(series)
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            worst = max(worst, share / bound if name != "setup_s" else 0.0)
            mark = "ok" if share <= bound / 3 else (
                "WIDE" if share <= bound else "OVER")
        print(f"{name:28s} {statistics.median(series):12.5g} {share:8.4f} "
              f"{'' if bound is None else bound:>6} {mark:4s} "
              + " ".join(f"{value:.4g}" for value in series))
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
