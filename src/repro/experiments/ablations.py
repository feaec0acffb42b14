"""AB1/AB2 -- ablations of the paper's design choices.

AB1 (*discretization*): the correction rule minimizes over the discrete
grid ``4*s*kappa`` [KO09] rather than using the continuous midpoint.  The
paper credits the discretization with making the delicate
catch-up/wait alternation sound; the ablation compares both rules under
noise.

AB2 (*stick to the median*): corrections outside ``[0, vartheta*kappa]``
exist solely to pin the pulse near the median of the three reception
times, which is what contains a faulty predecessor.  Disabling the rule
(classic clamping) and injecting one late Byzantine predecessor shows the
containment disappearing: the victim column inherits the fault's full
offset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.correction import CorrectionPolicy
from repro.faults.injection import FaultPlan
from repro.faults.model import AdversarialLateFault
from repro.experiments.batch import BatchRunner, BatchTrial
from repro.experiments.common import standard_config

__all__ = ["AblationResult", "run_discretization_ablation", "run_median_ablation"]


@dataclass
class AblationResult:
    """Skews measured with the design choice on versus off."""

    name: str
    diameter: int
    skew_with: float
    skew_without: float
    context: str

    @property
    def degradation(self) -> float:
        """Skew ratio off/on (>1 means the design choice helps)."""
        if self.skew_with == 0:
            return float("inf") if self.skew_without > 0 else 1.0
        return self.skew_without / self.skew_with

    def table(self) -> str:
        """ASCII rendering."""
        return format_table(
            ["quantity", "value"],
            [
                ("ablation", self.name),
                ("D", self.diameter),
                ("context", self.context),
                ("skew with design choice", self.skew_with),
                ("skew without", self.skew_without),
                ("degradation factor", self.degradation),
            ],
            title=f"Ablation: {self.name}",
        )


def run_discretization_ablation(
    diameter: int = 16, num_pulses: int = 4, seed: int = 0
) -> AblationResult:
    """AB1: discrete ``4*s*kappa`` grid versus continuous midpoint rule.

    Example
    -------
    >>> from repro.experiments.ablations import run_discretization_ablation
    >>> result = run_discretization_ablation(diameter=4, num_pulses=2)
    >>> result.skew_with > 0 and result.skew_without > 0
    True
    """
    config = standard_config(diameter, seed=seed, num_pulses=num_pulses)
    batch = BatchRunner(num_pulses=num_pulses).run(
        [
            BatchTrial(
                config=config,
                policy=CorrectionPolicy(discretize=True),
                label="discretized",
            ),
            BatchTrial(
                config=config,
                policy=CorrectionPolicy(discretize=False),
                label="continuous",
            ),
        ]
    )
    skew_with, skew_without = batch.max_local_skews()
    return AblationResult(
        name="discretization (4sk grid)",
        diameter=diameter,
        skew_with=float(skew_with),
        skew_without=float(skew_without),
        context="random delays + drift, fault-free",
    )


def run_median_ablation(
    diameter: int = 16,
    num_pulses: int = 4,
    seed: int = 0,
    lag_kappas: float = 50.0,
) -> AblationResult:
    """AB2: stick-to-the-median versus naive clamping, one late fault.

    Example
    -------
    >>> from repro.experiments.ablations import run_median_ablation
    >>> result = run_median_ablation(diameter=8, num_pulses=2)
    >>> result.degradation > 3.0
    True
    """
    config = standard_config(diameter, seed=seed, num_pulses=num_pulses)
    fault_node = (config.graph.width // 2, max(1, config.graph.num_layers // 2))
    plan = FaultPlan.from_nodes({fault_node: AdversarialLateFault(lag_kappas)})
    # Algorithm 1 semantics: the node waits for the late message, so the
    # correction rule alone must contain it (Algorithm 3's missing-message
    # fallback would otherwise mask the ablation for late own-copies).
    # Simplified trials run through the trial-stacked (per policy group)
    # Algorithm 1 kernel; only the fault-adjacent column goes through the
    # exact batched fallback.
    batch = BatchRunner(num_pulses=num_pulses).run(
        [
            BatchTrial(
                config=config,
                fault_plan=plan,
                policy=CorrectionPolicy(stick_to_median=True),
                algorithm="simplified",
                label="stick-to-median",
            ),
            BatchTrial(
                config=config,
                fault_plan=plan,
                policy=CorrectionPolicy(stick_to_median=False),
                algorithm="simplified",
                label="naive-clamp",
            ),
        ]
    )
    skew_with, skew_without = batch.max_local_skews()
    return AblationResult(
        name="stick-to-the-median",
        diameter=diameter,
        skew_with=float(skew_with),
        skew_without=float(skew_without),
        context=f"one predecessor late by {lag_kappas:.0f} kappa (Alg. 1)",
    )
