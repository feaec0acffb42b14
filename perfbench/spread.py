"""Steadiness check: run one workload over many seeds, report each spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload stream_horizon --seeds 101-110 --seconds 15

Each seed runs ``perfbench/run.py --trace 0`` in a fresh process.  For
every end-to-end metric this prints the median over the seeds and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) over the median, next to the
metric's bound from ``BENCHMARK.json``.  A benchmark is steady when every
spread, ``setup_s``'s included, stays below a third of its bound; a
spread above the bound itself would fail a benchmark pass.  Each
run's wall time is printed too, since the runs of one benchmark pass
share a fixed time budget.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, relative_iqr  # noqa: E402


def parse_seeds(text: str):
    """``"101-110"`` or ``"1,5,9"`` -> list of ints."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    """Run the seeds, print one line per run and one per metric.

    Returns 0 when every spread is below a third of its bound, else 1.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    values = {}
    walls = []
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        walls.append(time.perf_counter() - start)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if out.returncode or not result["correct"]:
            print(out.stdout + out.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
        ) + f" wall={walls[-1]:.1f}s", flush=True)
    steady = True
    for metric in benchmark["end_to_end"]:
        series = values[metric["name"]]
        spread = relative_iqr(series)
        within = spread < metric["bound"] / 3
        steady = steady and within
        verdict = (
            "steady" if within
            else "within the bound, not below a third" if spread < metric["bound"]
            else "OUTSIDE the bound"
        )
        print(f"{metric['name']}: median {median(series):.6g} {metric['unit']}, "
              f"spread {spread:.4f}, bound {metric['bound']} ({verdict})")
    print(f"wall seconds per run: median {median(walls):.1f}, max {max(walls):.1f}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
