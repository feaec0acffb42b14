"""Command-line experiment runner: ``python -m repro.experiments [ids...]``.

Regenerates the paper's artifacts outside of pytest.  Without arguments it
runs everything; with arguments it runs the named experiment ids (T1, F1,
F23, F5, TH1, TH2, TH3, TH4, C15, TH6, LA1, P1, AB1, AB2).

Service mode (see ``docs/service.md``):

* ``--serve [--host H --port P ...]`` boots the simulation service
  (delegates to ``python -m repro.service``).
* ``--submit SPEC --url URL [--pulses N]`` submits a trial grid to a
  running service and prints the returned statistics.  ``SPEC`` is a
  known grid id (``TH1``, ``TH3``, ``C15``, ``T1``) or an inline JSON
  grid spec such as ``'{"kind": "thm11", "diameters": [4, 8]}'``.
"""

from __future__ import annotations

import json
import sys
import time

from repro.experiments.ablations import (
    run_discretization_ablation,
    run_median_ablation,
)
from repro.experiments.cor15_variation import run_cor15
from repro.experiments.fig1_trix_hex import run_fig1
from repro.experiments.fig23_structure import run_structure
from repro.experiments.fig5_jump import run_fig5
from repro.experiments.lemA1_layer0 import run_lemA1
from repro.experiments.potential_decay import run_potential_decay
from repro.experiments.table1 import run_table1
from repro.experiments.thm11_local_skew import run_thm11
from repro.experiments.thm12_worstcase_faults import run_thm12
from repro.experiments.thm13_random_faults import run_thm13
from repro.experiments.thm14_static_faults import run_thm14
from repro.experiments.thm16_selfstab import run_thm16

#: Experiment id -> zero-argument driver at bench scale.
RUNNERS = {
    "T1": lambda: run_table1(diameters=(8, 16, 32), seeds=(0, 1), num_pulses=3),
    "F1": lambda: run_fig1(diameter=32, num_pulses=2),
    "F23": lambda: run_structure(length=32, num_layers=16),
    "F5": lambda: run_fig5(diameter=24),
    "TH1": lambda: run_thm11(
        diameters=(4, 8, 16, 32, 64), seeds=(0, 1, 2), num_pulses=3
    ),
    "TH2": lambda: run_thm12(diameter=16, fault_counts=(0, 1, 2, 3)),
    "TH3": lambda: run_thm13(diameter=16, num_trials=15, num_pulses=3),
    "TH4": lambda: run_thm14(diameter=16, num_pulses=5),
    "C15": lambda: run_cor15(diameter=16, num_pulses=6),
    "TH6": lambda: run_thm16(diameter=8),
    "LA1": lambda: run_lemA1(chain_lengths=(8, 16, 32, 64), num_pulses=5),
    "P1": lambda: run_potential_decay(diameter=16, amplitude_kappas=6.0),
    "AB1": lambda: run_discretization_ablation(diameter=16, num_pulses=4),
    "AB2": lambda: run_median_ablation(diameter=16, num_pulses=4),
}


#: Grid specs for ``--submit`` by experiment id, at bench scale --
#: the same grids the corresponding drivers batch.
SERVICE_GRIDS = {
    "TH1": {"kind": "thm11", "diameters": [4, 8, 16], "seeds": [0, 1]},
    "TH3": {"kind": "thm13", "diameter": 16, "num_trials": 10},
    "C15": {"kind": "cor15", "diameter": 16, "seed": 0},
    "T1": {"kind": "table1", "diameters": [8, 16], "seeds": [0, 1]},
}


def _submit(args: list[str]) -> int:
    """Handle ``--submit SPEC --url URL [--pulses N]``."""
    from repro.service.client import ServiceClient

    def option(name: str, default: str | None = None) -> str | None:
        if name not in args:
            return default
        return args[args.index(name) + 1]

    spec = option("--submit")
    url = option("--url", "http://127.0.0.1:8631")
    num_pulses = int(option("--pulses", "4"))
    if spec in SERVICE_GRIDS:
        grid = dict(SERVICE_GRIDS[spec])
    else:
        grid = json.loads(spec)
    with ServiceClient(url) as client:
        accepted = client.submit(grid, num_pulses=num_pulses)
        job_id = accepted["id"]
        print(f"submitted {job_id} (key={accepted['key']})")
        job = client.wait(job_id)
        if job["status"] != "done":
            print(f"job failed: {job['error']}", file=sys.stderr)
            return 1
        result = client.result(job_id)
    hit = "hit" if job["cache_hit"] else "miss"
    print(f"done (cache {hit}); max local skews per trial:")
    print(json.dumps(result["max_local_skews"]))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments; returns a process exit code."""
    args = sys.argv[1:] if argv is None else argv
    if any(a in ("-h", "--help") for a in args):
        print(__doc__)
        print("available ids:", " ".join(RUNNERS))
        return 0
    if "--serve" in args:
        from repro.service.__main__ import main as serve_main

        return serve_main([a for a in args if a != "--serve"])
    if "--submit" in args:
        return _submit(args)
    ids = [a.upper() for a in args] or list(RUNNERS)
    unknown = [i for i in ids if i not in RUNNERS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        print("available ids:", " ".join(RUNNERS), file=sys.stderr)
        return 2
    for exp_id in ids:
        started = time.perf_counter()
        result = RUNNERS[exp_id]()
        elapsed = time.perf_counter() - started
        print(f"\n[{exp_id}] ({elapsed:.1f}s)")
        print(result.table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
