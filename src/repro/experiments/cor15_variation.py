"""C15 -- Corollary 1.5: sustained variation does not break the skew bound.

Per pulse, the corollary tolerates (i) a constant number of faulty nodes
changing their behaviour, (ii) link delays drifting by up to
``n^{-1/2} u log D``, and (iii) clock speeds drifting by up to
``n^{-1/2} (vartheta - 1) log D``.

The driver runs with all three enabled -- a bounded per-pulse random walk
on every edge delay, a bounded per-pulse random walk on every clock rate,
and a :class:`~repro.faults.model.MutableFault` that flips between late,
silent, and early phases -- and measures the overall local skew ``L``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.report import format_table
from repro.delays.models import VaryingDelayModel
from repro.faults.injection import FaultPlan
from repro.faults.model import (
    AdversarialEarlyFault,
    AdversarialLateFault,
    CrashFault,
    MutableFault,
)
from repro.experiments.batch import BatchRunner, BatchTrial
from repro.experiments.common import standard_config
from repro.topology.layered import NodeId

__all__ = ["Cor15Result", "run_cor15", "cor15_trial"]


@dataclass
class Cor15Result:
    """Measured overall skew under sustained variation."""

    diameter: int
    delay_step: float
    rate_step: float
    overall: float
    envelope: float
    behavior_changes: int

    @property
    def within_envelope(self) -> bool:
        """Whether ``L`` stayed within the envelope."""
        return self.overall <= self.envelope

    def table(self) -> str:
        """ASCII rendering."""
        return format_table(
            ["quantity", "value"],
            [
                ("D", self.diameter),
                ("per-pulse delay step (ii)", self.delay_step),
                ("per-pulse rate step (iii)", self.rate_step),
                ("fault behaviour changes (i)", self.behavior_changes),
                ("overall L", self.overall),
                ("envelope", self.envelope),
            ],
            title="Corollary 1.5: skew under sustained variation",
        )


class _DriftingRates:
    """Per-node clock rates performing a bounded per-pulse random walk."""

    def __init__(self, vartheta: float, step: float, seed: int) -> None:
        self.vartheta = vartheta
        self.step = step
        self.seed = seed
        self._rates: Dict[NodeId, list] = {}
        self._rngs: Dict[NodeId, np.random.Generator] = {}

    def __call__(self, node: NodeId, pulse: int) -> float:
        rates = self._rates.get(node)
        if rates is None:
            v, layer = node
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, v, layer])
            )
            rates = [float(rng.uniform(1.0, self.vartheta))]
            self._rates[node] = rates
            self._rngs[node] = rng
        rng = self._rngs[node]
        while len(rates) <= pulse:
            delta = float(rng.uniform(-self.step, self.step))
            rates.append(min(max(rates[-1] + delta, 1.0), self.vartheta))
        return rates[pulse]


def cor15_trial(
    diameter: int = 16,
    num_pulses: int = 6,
    seed: int = 0,
) -> tuple[BatchTrial, Dict[str, float]]:
    """The sustained-variation trial :func:`run_cor15` batches.

    Returns ``(trial, drift)`` where ``drift`` records the per-pulse
    ``delay_step`` (ii), ``rate_step`` (iii), and the fault plan's
    ``behavior_changes`` (i).  Factored out of the driver so other
    callers -- the :mod:`repro.service` job runner in particular --
    can submit the same cell.
    """
    config = standard_config(diameter, seed=seed, num_pulses=num_pulses)
    params = config.params
    graph = config.graph
    n = config.num_grid_nodes
    log_d = math.log2(max(diameter, 2))

    delay_step = params.u * log_d / math.sqrt(n)
    rate_step = (params.vartheta - 1.0) * log_d / math.sqrt(n)

    delays = VaryingDelayModel(
        params.d, params.u, max_step=delay_step, seed=seed + 31
    )
    rates = _DriftingRates(params.vartheta, rate_step, seed + 47)

    mutable = MutableFault(
        [
            (0, AdversarialLateFault(25.0)),
            (2, CrashFault()),
            (4, AdversarialEarlyFault(25.0)),
        ]
    )
    plan = FaultPlan.from_nodes(
        {(graph.width // 2, max(1, graph.num_layers // 2)): mutable}
    )
    changes = sum(plan.count_behavior_changes(k) for k in range(num_pulses))
    trial = BatchTrial(
        config=config,
        fault_plan=plan,
        delay_model=delays,
        clock_rates=rates,
        label="sustained-variation",
    )
    drift = {
        "delay_step": delay_step,
        "rate_step": rate_step,
        "behavior_changes": changes,
    }
    return trial, drift


def run_cor15(
    diameter: int = 16,
    num_pulses: int = 6,
    seed: int = 0,
    envelope_factor: float = 1.5,
    executor: str = "serial",
    shards: Optional[int] = None,
    store_times: bool = False,
) -> Cor15Result:
    """Run with per-pulse delay/rate drift and a mutating fault.

    ``executor``/``shards`` are forwarded to
    :class:`BatchRunner` so multi-seed/multi-diameter variants of this
    study shard and stack like the other drivers (the default
    single-trial run gains nothing from either).  Only the folded
    overall skew is consumed, so the run streams by default
    (``store_times=False``); ``store_times=True`` keeps raw pulse times.

    Example
    -------
    >>> from repro.experiments.cor15_variation import run_cor15
    >>> result = run_cor15(diameter=8, num_pulses=2)
    >>> result.within_envelope
    True
    """
    trial, drift = cor15_trial(diameter, num_pulses=num_pulses, seed=seed)
    params = trial.config.params

    batch = BatchRunner(
        num_pulses=num_pulses,
        executor=executor,
        shards=shards,
        store_times=store_times,
    ).run([trial])
    return Cor15Result(
        diameter=diameter,
        delay_step=drift["delay_step"],
        rate_step=drift["rate_step"],
        overall=float(batch.overall_skews()[0]),
        envelope=envelope_factor * params.local_skew_bound(diameter),
        behavior_changes=int(drift["behavior_changes"]),
    )
