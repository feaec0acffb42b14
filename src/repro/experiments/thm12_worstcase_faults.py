"""TH2 -- Theorem 1.2: worst-case stacked faults cost ``O(5^f k log D)``.

The exponential bound binds when faults cluster: each fault can shift its
successors by up to twice the local skew its neighborhood already suffers
(Lemma 4.30), so ``f`` faults stacked down one column within a few layers
of each other compound before self-stabilization absorbs the damage.

The driver stacks ``f`` adversarially-late faults in one column on
consecutive layers and reports the measured skew against ``B_f`` from the
paper's induction (``B_0 = 4k(2 + log2 D)``, ``B_{i+1} = 5 B_i + 4k``).
Shape checks: skew grows monotonically with ``f`` and stays below ``B_f``.
The whole fault-count sweep runs as one
:class:`~repro.experiments.batch.BatchRunner` call, one trial per ``f``
(the trials' depths differ and stack padded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.report import format_table
from repro.faults.injection import FaultPlan
from repro.faults.model import AdversarialLateFault
from repro.experiments.batch import BatchRunner, BatchTrial
from repro.experiments.common import standard_config

__all__ = ["Thm12Row", "Thm12Result", "run_thm12"]


@dataclass(frozen=True)
class Thm12Row:
    """Measured skew with ``num_faults`` stacked faults."""

    num_faults: int
    local_skew: float
    bound: float


@dataclass
class Thm12Result:
    """Rows of the fault sweep."""

    diameter: int
    rows: List[Thm12Row]

    @property
    def monotone(self) -> bool:
        """Whether measured skew is non-decreasing in ``f``."""
        skews = [r.local_skew for r in self.rows]
        return all(b >= a - 1e-12 for a, b in zip(skews, skews[1:]))

    @property
    def all_within_bound(self) -> bool:
        """Whether every ``f`` respected ``B_f``."""
        return all(r.local_skew <= r.bound for r in self.rows)

    def table(self) -> str:
        """ASCII rendering."""
        body = [(r.num_faults, r.local_skew, r.bound) for r in self.rows]
        return format_table(
            ["f (stacked faults)", "L_l (measured)", "B_f = O(5^f k log D)"],
            body,
            title=f"Theorem 1.2: worst-case clustered faults (D={self.diameter})",
        )


def run_thm12(
    diameter: int = 16,
    fault_counts: Sequence[int] = (0, 1, 2, 3),
    num_pulses: int = 3,
    seed: int = 0,
    lag_kappas: float = 50.0,
    layer_spacing: int = 4,
) -> Thm12Result:
    """Measure skew versus the number of stacked worst-case faults.

    Faults are adversarially late by ``lag_kappas * kappa`` -- far beyond
    the stick-to-the-median containment radius, so every fault exerts the
    maximum pull the algorithm permits.  ``layer_spacing`` leaves a few
    layers between consecutive faults so each hit lands on the skew the
    previous one left behind (back-to-back faults in one column shadow
    each other).  Note the measured growth stays far below the ``5^f``
    envelope: the exponential is a worst-case bound requiring adversarial
    coordination beyond static late-faults, exactly as the paper remarks
    before Theorem 1.3.

    Example
    -------
    >>> from repro.experiments.thm12_worstcase_faults import run_thm12
    >>> result = run_thm12(diameter=8, fault_counts=(0, 1), num_pulses=2)
    >>> result.all_within_bound and result.monotone
    True
    """
    config0 = standard_config(diameter, seed=seed)
    column = config0.graph.width // 2
    trials: List[BatchTrial] = []
    for f in fault_counts:
        config = standard_config(
            diameter,
            seed=seed,
            num_layers=max(config0.graph.num_layers, f * layer_spacing + 4),
            num_pulses=num_pulses,
        )
        plan = FaultPlan.column_stack(
            config.graph,
            num_faults=f,
            base_vertex=column,
            first_layer=1,
            layer_spacing=layer_spacing,
            behavior_factory=lambda node: AdversarialLateFault(lag_kappas),
        )
        trials.append(
            BatchTrial(config=config, fault_plan=plan, label=f"f={f}")
        )
    batch = BatchRunner(num_pulses=num_pulses).run(trials)
    rows = [
        Thm12Row(
            num_faults=f,
            local_skew=float(skew),
            bound=trial.config.params.worst_case_fault_bound(diameter, f),
        )
        for f, trial, skew in zip(
            fault_counts, trials, batch.max_local_skews()
        )
    ]
    return Thm12Result(diameter=diameter, rows=rows)
