#!/usr/bin/env python3
"""Batched parameter study: many trials, one call, stacked statistics.

Sweeps 16 seeds at two diameters with :class:`BatchRunner` -- compatible
trials advance through the trial-stacked ``(S, W)`` kernel in lock-step,
and skew statistics for the whole stack reduce in single array sweeps --
then injects a random fault plan per seed and compares the two skew
distributions.  The closing section shows the executor rule at work:
``BatchRunner`` takes only ``num_pulses`` and ``store_times``, and one
measured rule picks each run's shards -- serial for a small grid, two
shards (the first in this process, the second on a worker pool) for a
large streamed one.  Each run's ``plan`` event names the pick.

(The scalar reference is not a runner mode: tests and benches swap the
per-cell rule ``repro.core.fast._scalar_replay`` in behind the fallback
seam of ``repro.core.fast_batch``.)

Every pick produces bit-identical results; only the wall clock moves.

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
    # The executor rule: each run's plan event names its pick, and a
    # materialized run of the same grid gives the same statistics.
    # ------------------------------------------------------------------
    print("\nExecutor rule (fault-free trials):")
    for diameter, count, pulses in ((16, 4, 4), (32, 16, 64)):
        trials = BatchRunner.seed_sweep(diameter, range(count))
        events = []
        start = time.perf_counter()
        streamed = BatchRunner(num_pulses=pulses, store_times=False).run(
            trials, on_shard=events.append
        )
        elapsed = time.perf_counter() - start
        plan = events[0]
        kept = BatchRunner(num_pulses=pulses).run(trials)
        assert np.array_equal(
            streamed.max_local_skews(), kept.max_local_skews()
        ), "every pick must agree"
        print(
            f"  S={count:<3} D={diameter:<3} K={pulses:<3} "
            f"{plan['executor']:>7} x{plan['shards']}  {elapsed:7.3f}s"
        )
    print("  (identical skews streamed and materialized, as asserted)")


if __name__ == "__main__":
    main()
