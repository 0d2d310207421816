"""Run each workload repeatedly and print the spread of every metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads serve-mixed --runs 5 --first-seed 10

Each run is ``perfbench/run.py`` with its own seed.  For every metric
the command prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, as a share of the median) and, for end-to-end metrics, the
bound ``BENCHMARK.json`` allows.  It exits non-zero when a run fails
or a spread exceeds its bound.  Runs are untraced (``--trace 0``): only
end-to-end metrics have bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    status = 0
    for workload in args.workloads:
        values: dict[str, list] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if done.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {done.returncode})")
                print("\n".join(lines[-5:]) or done.stderr[-2000:])
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), flush=True)
        print(f"\n{workload}: {args.runs} runs")
        print(f"{'metric':<28} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>7}")
        for name, series in values.items():
            mid = statistics.median(series)
            q1, _, q3 = (
                statistics.quantiles(series, n=4) if len(series) > 1 else (mid, mid, mid)
            )
            spread = (q3 - q1) / mid if mid else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                status = 1
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of bound"
            bound_text = f"{bound:>7.3f}" if bound is not None else f"{'-':>7}"
            print(f"{name:<28} {mid:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>8.4f} {bound_text}{flag}")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
