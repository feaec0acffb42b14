"""TH3 -- Theorem 1.3: with random sparse faults, ``L_l`` stays ``O(k log D)``.

Nodes fail independently with ``p in o(n^{-1/2})``.  Unlike the stacked
worst case of Theorem 1.2, random faults are spread out; the simulated GCS
algorithm's self-stabilization absorbs each hit before the next lands, so
the skew stays within a constant factor of the fault-free bound with high
probability.

The driver samples many fault plans at ``p = c * n^{-0.6}`` (inside the
``o(n^{-1/2})`` regime), mixing crash, early, late, and Byzantine-random
behaviours, and reports the skew distribution against the envelope
``envelope_factor * 4k(2 + log2 D)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.faults.injection import FaultPlan
from repro.faults.locality import max_k_faulty_over_layer
from repro.faults.model import (
    AdversarialEarlyFault,
    AdversarialLateFault,
    ByzantineRandomFault,
    CrashFault,
)
from repro.experiments.batch import BatchRunner, BatchTrial
from repro.experiments.common import standard_config

__all__ = [
    "Thm13Trial",
    "Thm13Result",
    "run_thm13",
    "thm13_trials",
    "mixed_behavior_factory",
]


def mixed_behavior_factory(node, rng: np.random.Generator):
    """Random mix of the fault behaviours the model admits."""
    roll = rng.random()
    if roll < 0.4:
        return CrashFault()
    if roll < 0.6:
        return AdversarialLateFault(float(rng.uniform(5.0, 40.0)))
    if roll < 0.8:
        return AdversarialEarlyFault(float(rng.uniform(5.0, 40.0)))
    return ByzantineRandomFault(
        span=float(rng.uniform(0.1, 1.0)), seed=int(rng.integers(1 << 30))
    )


@dataclass(frozen=True)
class Thm13Trial:
    """One sampled fault plan and its measured skew."""

    seed: int
    num_faults: int
    local_skew: float
    max_k_faulty: int


@dataclass
class Thm13Result:
    """All trials plus the probabilistic-envelope verdict."""

    diameter: int
    probability: float
    envelope: float
    fault_free_skew: float
    trials: List[Thm13Trial]

    @property
    def max_skew(self) -> float:
        """Worst skew over all sampled plans."""
        return max(t.local_skew for t in self.trials)

    @property
    def fraction_within_envelope(self) -> float:
        """Fraction of trials whose skew stayed within the envelope."""
        inside = sum(1 for t in self.trials if t.local_skew <= self.envelope)
        return inside / len(self.trials)

    def table(self) -> str:
        """ASCII rendering (summary plus worst trials)."""
        worst = sorted(self.trials, key=lambda t: -t.local_skew)[:5]
        body = [
            (t.seed, t.num_faults, t.local_skew, t.max_k_faulty) for t in worst
        ]
        summary = (
            f"D={self.diameter}, p={self.probability:.2e}, trials="
            f"{len(self.trials)}, fault-free skew={self.fault_free_skew:.4g}, "
            f"envelope={self.envelope:.4g}, within={self.fraction_within_envelope:.0%}"
        )
        return (
            format_table(
                ["seed", "#faults", "L_l", "max k-faulty"],
                body,
                title="Theorem 1.3: random sparse faults (worst 5 trials)",
            )
            + "\n"
            + summary
        )


def thm13_trials(
    diameter: int,
    seeds: Sequence[int],
    num_pulses: int = 3,
    probability_scale: float = 1.0,
) -> tuple[List[BatchTrial], List[int]]:
    """The Theorem 1.3 trial grid: fault-free reference + sampled plans.

    Returns ``(trials, k_faulties)``: trial 0 is the fault-free
    reference, trial ``i + 1`` runs the plan sampled for ``seeds[i]``
    at ``p = probability_scale * n^{-0.6}``, and ``k_faulties[i]`` is
    the plan's max-``k``-faulty locality statistic.  This is the grid
    :func:`run_thm13` batches, factored out so other callers -- the
    :mod:`repro.service` job runner in particular -- can submit the
    same sweep.
    """
    config0 = standard_config(diameter)
    n = config0.num_grid_nodes
    probability = probability_scale * n**-0.6
    batch_trials: List[BatchTrial] = [
        BatchTrial(config=config0, label="fault-free")
    ]
    k_faulties: List[int] = []
    for seed in seeds:
        config = standard_config(diameter, seed=seed, num_pulses=num_pulses)
        rng = config.rng(salt=13)
        plan = FaultPlan.random(
            config.graph,
            probability,
            rng_or_seed=rng,
            behavior_factory=mixed_behavior_factory,
            enforce_one_local=True,
        )
        delta = max(2, int(round(n ** (1.0 / 12.0))))
        k_faulties.append(
            max(
                max_k_faulty_over_layer(
                    config.graph, plan, config.graph.num_layers - 1, delta
                ),
                0,
            )
        )
        batch_trials.append(
            BatchTrial(config=config, fault_plan=plan, label=f"seed={seed}")
        )
    return batch_trials, k_faulties


def run_thm13(
    diameter: int = 16,
    num_trials: int = 20,
    probability_scale: float = 1.0,
    num_pulses: int = 3,
    envelope_factor: float = 1.0,
    seeds: Sequence[int] | None = None,
    store_times: bool = False,
) -> Thm13Result:
    """Sample random fault plans and measure the skew distribution.

    All sampled plans (plus the fault-free reference as trial 0) run as a
    single :class:`BatchRunner` batch; the per-trial skew maxima reduce in
    one sweep over the stacked pulse-time stack.  Fault-adjacent cells
    of all trials replay through one batched fallback pass per layer
    step.  The reference trial's
    pulse budget differs from the fault trials', not its geometry, so the
    whole batch is one stack group, and depth compaction retires trials
    whose layers a fault plan has silenced outright.  The driver reduces
    to per-trial skew maxima, so it streams by default
    (``store_times=False``, bit-identical statistics without the
    ``(S, K, L, W)`` block); ``store_times=True`` restores the
    materialized pulse times.

    Example
    -------
    >>> from repro.experiments.thm13_random_faults import run_thm13
    >>> result = run_thm13(diameter=6, num_trials=2, num_pulses=2)
    >>> result.fraction_within_envelope
    1.0
    """
    config0 = standard_config(diameter)
    n = config0.num_grid_nodes
    probability = probability_scale * n**-0.6
    envelope = envelope_factor * config0.params.local_skew_bound(diameter)

    if seeds is None:
        seeds = range(num_trials)
    seeds = list(seeds)
    batch_trials, k_faulties = thm13_trials(
        diameter,
        seeds,
        num_pulses=num_pulses,
        probability_scale=probability_scale,
    )

    batch = BatchRunner(
        num_pulses=num_pulses,
        store_times=store_times,
    ).run(batch_trials)
    skews = batch.max_local_skews()
    fault_free_skew = float(skews[0])
    num_faults = batch.num_faults()
    trials = [
        Thm13Trial(
            seed=seed,
            num_faults=int(num_faults[i + 1]),
            local_skew=float(skews[i + 1]),
            max_k_faulty=k_faulties[i],
        )
        for i, seed in enumerate(seeds)
    ]
    return Thm13Result(
        diameter=diameter,
        probability=probability,
        envelope=envelope,
        fault_free_skew=fault_free_skew,
        trials=trials,
    )
