"""TH1 -- Theorem 1.1: fault-free local skew is at most ``4k(2 + log2 D)``.

Sweep the grid diameter, run fault-free with random static delays and
drifting clocks (multiple seeds), and compare the measured ``sup_l L_l``
against the bound.  The shape checks: measured skew stays under the bound
at every ``D``, and grows sub-linearly (log-like) with ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.report import format_table
from repro.analysis.stats import Fit, fit_log2, fit_power
from repro.experiments.batch import BatchRunner
from repro.experiments.common import standard_config

__all__ = ["Thm11Row", "Thm11Result", "run_thm11"]


@dataclass(frozen=True)
class Thm11Row:
    """Measured vs bound at one diameter."""

    diameter: int
    local_skew: float
    inter_layer_skew: float
    bound: float

    @property
    def margin(self) -> float:
        """Bound divided by measurement (>1 means the bound holds)."""
        if self.local_skew == 0:
            return float("inf")
        return self.bound / self.local_skew


@dataclass
class Thm11Result:
    """Sweep rows plus fitted growth models."""

    rows: List[Thm11Row]
    kappa: float
    log_fit: Optional[Fit] = field(default=None)
    power_fit: Optional[Fit] = field(default=None)

    @property
    def all_within_bound(self) -> bool:
        """Whether every diameter respected the Theorem 1.1 bound."""
        return all(r.local_skew <= r.bound for r in self.rows)

    def table(self) -> str:
        """ASCII rendering of the sweep."""
        body = [
            (r.diameter, r.local_skew, r.inter_layer_skew, r.bound, r.margin)
            for r in self.rows
        ]
        footer = ""
        if self.power_fit is not None:
            footer = (
                f"\npower fit: skew ~ D^{self.power_fit.slope:.2f}"
                f" (R^2={self.power_fit.r_squared:.3f});"
                f" log2 fit slope {self.log_fit.slope:.4g}"
                f" = {self.log_fit.slope / self.kappa:.2f} kappa per"
                " doubling of D"
            )
        return (
            format_table(
                ["D", "L_l (measured)", "L_l,l+1", "4k(2+log2 D)", "margin"],
                body,
                title="Theorem 1.1: fault-free local skew vs bound",
            )
            + footer
        )


def run_thm11(
    diameters: Sequence[int] = (4, 8, 16, 32, 64),
    seeds: Sequence[int] = (0, 1, 2),
    num_pulses: int = 4,
    executor: str = "serial",
    shards: Optional[int] = None,
    store_times: bool = False,
) -> Thm11Result:
    """Measure the fault-free local skew sweep.

    The *whole* sweep -- every diameter x every seed -- runs as one
    :class:`BatchRunner` batch: the widths differ per diameter, so the
    trials advance together through the padded heterogeneous
    ``(S, W_max)`` kernel (one stack instead of one width-``len(seeds)``
    stack per diameter).  The sweep's depths differ per diameter too
    (square grids), so depth compaction drops each diameter's trials out
    of the layer loop as they finish instead of padding everyone to the
    deepest grid.  The per-diameter
    maxima come out of the stacked skew statistics, sliced per diameter.
    ``executor``/``shards`` are forwarded to :class:`BatchRunner`
    (``executor="process"`` shards the batch across worker processes).
    The driver only needs the folded skew maxima, so it defaults to the
    streaming path (``store_times=False``): the ``(S, K, L, W)``
    pulse-time block is never materialized and the statistics are
    bit-identical; pass ``store_times=True`` to keep raw pulse times for
    drill-in.

    Example
    -------
    >>> from repro.experiments.thm11_local_skew import run_thm11
    >>> result = run_thm11(diameters=(4, 8), seeds=(0,), num_pulses=2)
    >>> result.all_within_bound
    True
    >>> len(result.rows)
    2
    """
    rows: List[Thm11Row] = []
    kappa = standard_config(4).params.kappa
    runner = BatchRunner(
        num_pulses=num_pulses,
        executor=executor,
        shards=shards,
        store_times=store_times,
    )
    trials = []
    for diameter in diameters:
        trials.extend(
            BatchRunner.seed_sweep(diameter, seeds, num_pulses=num_pulses)
        )
    batch = runner.run(trials)
    local = batch.max_local_skews()
    inter = batch.max_inter_layer_skews()
    for i, diameter in enumerate(diameters):
        cell = slice(i * len(seeds), (i + 1) * len(seeds))
        bound = standard_config(diameter).params.local_skew_bound(diameter)
        rows.append(
            Thm11Row(
                diameter,
                float(local[cell].max()),
                float(inter[cell].max()),
                bound,
            )
        )

    result = Thm11Result(rows=rows, kappa=kappa)
    xs = [r.diameter for r in rows]
    ys = [max(r.local_skew, 1e-12) for r in rows]
    if len(xs) >= 2:
        result.power_fit = fit_power(xs, ys)
        result.log_fit = fit_log2(xs, ys)
    return result
