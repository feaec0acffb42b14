#!/usr/bin/env python3
"""Batched parameter study: many trials, one call, stacked statistics.

Sweeps 16 seeds at two diameters with :class:`BatchRunner` -- compatible
trials advance through the trial-stacked ``(S, W)`` kernel in lock-step,
and skew statistics for the whole stack reduce in single array sweeps --
then injects a random fault plan per seed and compares the two skew
distributions.  The closing section demonstrates the executor knobs:

* ``BatchRunner(...)``                       -- trial-stacked (the default)
* ``BatchRunner(executor="process", shards=N)`` -- shard trials across
  worker processes (fault-heavy sweeps; trials must be picklable)

(The scalar reference is not a runner mode: tests and benches swap the
per-cell rule ``repro.core.fast._scalar_replay`` in behind the fallback
seam of ``repro.core.fast_batch``.)

All strategies produce bit-identical results; only the wall clock moves.

Run:  python examples/batch_sweep.py
"""

import time

import numpy as np

from repro.experiments.batch import BatchRunner
from repro.experiments.common import standard_config
from repro.experiments.thm13_random_faults import mixed_behavior_factory
from repro.faults import FaultPlan


def percentile_row(label, values):
    lo, mid, hi = np.percentile(values, [5, 50, 95])
    print(f"  {label:<22} p5={lo:.4f}  median={mid:.4f}  p95={hi:.4f}")


def main() -> None:
    seeds = range(16)
    runner = BatchRunner(num_pulses=4)

    for diameter in (16, 24):
        bound = standard_config(diameter).params.local_skew_bound(diameter)
        print(f"\nD = {diameter}  (Theorem 1.1 bound {bound:.4f})")

        # Fault-free sweep: one batch, per-trial maxima in one array sweep.
        clean = runner.run(BatchRunner.seed_sweep(diameter, seeds))
        percentile_row("fault-free L_l", clean.max_local_skews())

        # Same seeds, each with its own random sparse fault plan.
        def random_plan(config):
            return FaultPlan.random(
                config.graph,
                probability=0.8 * config.num_grid_nodes**-0.6,
                rng_or_seed=config.rng(salt=13),
                behavior_factory=mixed_behavior_factory,
                enforce_one_local=True,
            )

        faulty = runner.run(
            BatchRunner.seed_sweep(
                diameter, seeds, fault_plan_factory=random_plan
            )
        )
        percentile_row("faulty L_l", faulty.max_local_skews())
        print(
            f"  faults/trial           min={faulty.num_faults().min()}  "
            f"max={faulty.num_faults().max()}"
        )

        stats = clean.correction_stats()
        percentile_row("fault-free max |C|", stats["max_abs"])

        worst = float(faulty.max_local_skews().max())
        assert worst <= 5.0 * bound, "random sparse faults exploded the skew?"
        print(f"  worst faulty skew {worst:.4f} stays within 5x the bound")

    # ------------------------------------------------------------------
    # Executor knobs: every strategy computes the same numbers; pick by
    # workload shape (see the BatchRunner docstring).
    # ------------------------------------------------------------------
    print("\nExecutor knobs (S=32 fault-free trials, D=16):")
    trials = BatchRunner.seed_sweep(16, range(32))
    BatchRunner().run(trials)  # warm the per-layer delay caches once
    runners = {
        "trial-stacked (default)": BatchRunner(),
        "process-sharded x4": BatchRunner(executor="process", shards=4),
    }
    reference = None
    for label, runner in runners.items():
        start = time.perf_counter()
        batch = runner.run(trials)
        elapsed = time.perf_counter() - start
        skews = batch.max_local_skews()
        if reference is None:
            reference = skews
        assert np.array_equal(skews, reference), "strategies must agree"
        print(f"  {label:<26} {elapsed:7.3f}s  median L_l={np.median(skews):.4f}")
    print("  (identical skews from every strategy, as asserted)")


if __name__ == "__main__":
    main()
