"""F5 -- Figure 5 reproduction: oscillation without the jump condition.

The jump condition JC dampens corrections that leave the ``[0, vt*k]``
range: a node jumping toward its earliest/latest neighbor stops ``kappa``
short of it.  Without the dampening, adjacent nodes overshoot each other
("overswing"), flipping the sign of their offset every layer and letting
measurement error accumulate -- Figure 5's amplifying oscillation.

The driver feeds a zigzag layer 0 (adjacent nodes maximally and oppositely
offset) into two runs differing only in ``CorrectionPolicy.jump_slack``
(``+1`` = the paper's JC; ``-1`` = SC/FC-compliant full overshoot) and
tracks the oscillation amplitude (max adjacent offset) per layer.
Adversarial parity-keyed delays keep pumping energy into the oscillation,
as the worst case of the paper's Figure 5 requires.

Both runs use Algorithm 1 semantics, which the fast simulator executes
through the vectorized simplified layer-step kernel (every message is
awaited, so the fault-free sweep is a pure array op).  ``jump_slack`` is
a *numeric* policy knob, so the with-JC and without-JC runs advance
together through one :class:`~repro.core.fast_batch.TrialStack` (the
slack broadcasts as a per-trial column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import format_table
from repro.analysis.skew import local_skew_per_layer
from repro.core.correction import CorrectionPolicy
from repro.core.fast import FastSimulation
from repro.core.fast_batch import TrialStack
from repro.core.layer0 import AlternatingLayer0
from repro.delays.models import AdversarialSplitDelays
from repro.experiments.common import standard_config
from repro.params import Parameters
from repro.topology.base_graph import cycle_graph
from repro.topology.layered import LayeredGraph

__all__ = ["Fig5Result", "run_fig5"]


@dataclass
class Fig5Result:
    """Per-layer oscillation amplitude, with and without JC."""

    diameter: int
    params: Parameters
    amplitude_with_jc: List[float]
    amplitude_without_jc: List[float]

    @property
    def final_with_jc(self) -> float:
        """Amplitude on the deepest layer with the jump condition."""
        return self.amplitude_with_jc[-1]

    @property
    def final_without_jc(self) -> float:
        """Amplitude on the deepest layer without the jump condition."""
        return self.amplitude_without_jc[-1]

    def table(self) -> str:
        """ASCII rendering of both amplitude series."""
        step = max(1, len(self.amplitude_with_jc) // 10)
        rows = [
            (
                layer,
                self.amplitude_without_jc[layer],
                self.amplitude_with_jc[layer],
            )
            for layer in range(0, len(self.amplitude_with_jc), step)
        ]
        return format_table(
            ["layer", "amplitude without JC", "amplitude with JC"],
            rows,
            title=(
                f"Figure 5 (D={self.diameter}): oscillation amplitude, "
                f"kappa={self.params.kappa:.4g}"
            ),
        )


def run_fig5(
    diameter: int = 24,
    num_pulses: int = 2,
    amplitude_kappas: float = 4.0,
) -> Fig5Result:
    """Compare oscillation amplitudes with and without jump dampening.

    The setup mirrors the figure: a *cycle* base graph (no boundary to
    anchor the oscillation -- the paper calls the cycle the theoretically
    cleanest base graph) and Algorithm 1 semantics (every message awaited,
    so the correction rule, not the missing-message fallback, decides each
    pulse).

    Example
    -------
    >>> from repro.experiments.fig5_jump import run_fig5
    >>> result = run_fig5(diameter=8)
    >>> result.final_with_jc < result.final_without_jc
    True
    """
    if diameter % 2 != 0:
        raise ValueError("diameter must be even for an alternating cycle")
    params = standard_config(4, num_pulses=num_pulses).params
    base = cycle_graph(2 * diameter)  # cycle diameter = half its size
    graph = LayeredGraph(base, max(2 * diameter, 8))
    layer0 = AlternatingLayer0(
        params.Lambda, amplitude_kappas * params.kappa
    )

    def slow_edge(edge) -> bool:
        # Parity-keyed delays pump the oscillation: messages from even
        # (late) nodes travel slowly, so low-branch jumps toward them land
        # even later; messages from odd (early) nodes travel fast, so
        # high-branch jumps toward them land even earlier.  Per layer the
        # amplitude flips sign and grows by ~(u + kappa) when jumps
        # overshoot (jump_slack = -1), while JC's dampening absorbs it.
        (v1, _), (_, _) = edge
        return v1 % 2 == 0

    delays = AdversarialSplitDelays(params.d, params.u, slow_edge)

    # jump_slack = +1 is the paper's JC dampening; -1 is the
    # SC/FC-compliant full overshoot Figure 5 warns about.
    sims = [
        FastSimulation(
            graph,
            params,
            delay_model=delays,
            layer0=layer0,
            policy=CorrectionPolicy(jump_slack=jump_slack),
            algorithm="simplified",
        )
        for jump_slack in (1.0, -1.0)
    ]
    results = TrialStack(sims).run(num_pulses)
    with_jc, without_jc = (
        [float(x) for x in local_skew_per_layer(result)] for result in results
    )
    return Fig5Result(
        diameter=diameter,
        params=params,
        amplitude_with_jc=with_jc,
        amplitude_without_jc=without_jc,
    )
