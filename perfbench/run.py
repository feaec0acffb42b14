"""Benchmark entry point: one workload per process, or all of them.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last line is the JSON result.  ``--workload all`` runs every
workload in its own fresh process, untraced and then traced, and prints a
combined table.  ``--setup-sample`` times only this process's imports
and one set-up and prints them as JSON; an untraced run starts such
processes to take ``setup_s`` as a median over fresh processes.  The
program is imported from ``src/`` next to this directory; without it
the command fails with exit code 2.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cold_sweep", "stream_horizon", "fault_horizon", "service_mix")
#: Thread pools of BLAS/OpenMP libraries pinned to one thread each.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    """Command-line arguments (the benchmark's documented interface)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="workload sizes; smoke is a miniature for the benchmark's tests",
    )
    parser.add_argument(
        "--setup-sample", action="store_true",
        help="time imports plus one set-up in this fresh process, print them as JSON",
    )
    parser.add_argument(
        "--grid-seeds", type=lambda text: [int(s) for s in text.split(",")],
        help="comma-separated trial seeds of a warm workload's grid, instead of "
             "deriving them from --seed (set-up processes get them from their run)",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    code = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", args.scale,
            ]
            code = max(code, subprocess.run(command, check=False).returncode)
    return code


def main(argv=None) -> int:
    """Validate the checkout, pin threads, run the requested workload."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import bench

    import_s = time.perf_counter() - PROCESS_START
    if args.setup_sample:
        return bench.setup_sample(
            args.workload, args.seed, import_s, args.scale, args.grid_seeds
        )
    return bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s, args.scale
    )


if __name__ == "__main__":
    sys.exit(main())
