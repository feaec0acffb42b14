"""T1 -- Table 1 reproduction: skew scaling of all grid methods.

The paper's Table 1 compares methods by asymptotic local/global skew.
This driver measures both for naive TRIX [LW20], HEX [DFL+16], and
Gradient TRIX over a diameter sweep, fits growth exponents (power-law fit
``skew ~ D**e``), and checks the qualitative claims:

* naive TRIX local skew grows ~linearly with ``D`` (exponent near 1);
* Gradient TRIX local skew grows sub-linearly (log-like; small exponent)
  and respects the Theorem 1.1 bound;
* HEX pays an additive ``d`` per crash, so with one crash its local skew
  dwarfs the others in the ``d >> u`` regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.analysis.stats import Fit, fit_power
from repro.baselines.hex import HexSimulation
from repro.baselines.trix import NaiveTrixSimulation
from repro.delays.models import AdversarialSplitDelays, StaticDelayModel
from repro.experiments.batch import BatchRunner, BatchTrial
from repro.experiments.common import standard_config
from repro.params import Parameters

__all__ = ["Table1Row", "Table1Result", "run_table1", "table1_trials"]


def _rightward_or_straight(edge) -> bool:
    """Figure 1 worst-case classifier: slow the non-leftward edges.

    Module-level (not a closure) so the adversarial trials stay picklable
    for ``BatchRunner(executor="process")``.
    """
    return edge[1][0] >= edge[0][0]


@dataclass(frozen=True)
class Table1Row:
    """One measured cell: method x diameter.

    ``local_skew`` is measured under random static delays and drift;
    ``worst_case_skew`` under the adversarial delay split of Figure 1 (the
    regime the asymptotic bounds of Table 1 describe).
    """

    method: str
    diameter: int
    local_skew: float
    worst_case_skew: float
    global_skew: float
    theory_bound: float


@dataclass
class Table1Result:
    """All rows plus per-method power-law fits of local skew vs diameter."""

    rows: List[Table1Row]
    fits: Dict[str, Fit] = field(default_factory=dict)

    def local_skews(self, method: str) -> List[Tuple[int, float]]:
        """(diameter, worst-case local skew) series of one method."""
        return [
            (r.diameter, r.worst_case_skew)
            for r in self.rows
            if r.method == method
        ]

    def table(self) -> str:
        """ASCII rendering in the layout of the paper's Table 1."""
        body = [
            (
                r.method,
                r.diameter,
                r.local_skew,
                r.worst_case_skew,
                r.global_skew,
                r.theory_bound,
            )
            for r in self.rows
        ]
        fit_lines = [
            f"  {method}: worst-case local skew ~ D^{fit.slope:.2f}"
            f" (R^2={fit.r_squared:.3f})"
            for method, fit in sorted(self.fits.items())
        ]
        return (
            format_table(
                [
                    "method",
                    "D",
                    "local skew",
                    "worst-case skew",
                    "global skew",
                    "theory bound",
                ],
                body,
                title="Table 1 (measured): local/global skew by method",
            )
            + "\nGrowth exponents (power fit on worst case):\n"
            + "\n".join(fit_lines)
        )


def _adversarial_delays(p: Parameters) -> AdversarialSplitDelays:
    """The Figure 1 worst case: rightward/straight edges slow, leftward fast."""
    return AdversarialSplitDelays(p.d, p.u, _rightward_or_straight)


def table1_trials(
    diameters: Sequence[int],
    seeds: Sequence[int],
    num_pulses: int = 4,
    configs: Optional[Dict[int, List]] = None,
) -> Tuple[List[BatchTrial], Dict[Tuple[int, str], List[int]]]:
    """The Gradient TRIX cells of the Table 1 sweep, as one trial grid.

    Random-delay (``"normal"``) and Figure-1 adversarial-delay
    (``"worst"``) trials for every diameter, interleaved into one
    mixed-geometry batch.  Returns ``(trials, cells)`` where ``cells``
    maps ``(diameter, kind)`` to the trial indices of that cell.
    ``configs`` optionally supplies pre-built per-diameter
    :class:`ExperimentConfig` lists (the driver reuses its own for the
    baselines); by default they are built from ``seeds``.  Factored out
    of :func:`run_table1` so other callers -- the :mod:`repro.service`
    job runner in particular -- can submit the same sweep.
    """
    if configs is None:
        configs = {
            diameter: [
                standard_config(diameter, seed=seed, num_pulses=num_pulses)
                for seed in seeds
            ]
            for diameter in diameters
        }
    trials: List[BatchTrial] = []
    cells: Dict[Tuple[int, str], List[int]] = {}
    for diameter in diameters:
        for kind, factory in (
            ("normal", lambda c: BatchTrial(config=c)),
            (
                "worst",
                lambda c: BatchTrial(
                    config=c, delay_model=_adversarial_delays(c.params)
                ),
            ),
        ):
            cell = cells.setdefault((diameter, kind), [])
            for config in configs[diameter]:
                cell.append(len(trials))
                trials.append(factory(config))
    return trials, cells


def run_table1(
    diameters: Sequence[int] = (8, 16, 32, 48),
    seeds: Sequence[int] = (0, 1),
    num_pulses: int = 4,
    params: Parameters | None = None,
    hex_crash: bool = True,
    executor: str = "serial",
    shards: Optional[int] = None,
    store_times: bool = False,
) -> Table1Result:
    """Measure the Table 1 comparison over a diameter sweep.

    Skews are maxima over ``seeds`` (worst case over sampled delay/drift
    assignments).  ``hex_crash`` additionally reports HEX with one crashed
    node, the regime in which its additive-``d`` weakness shows.  All
    Gradient TRIX cells -- every diameter, both the random and the
    Figure 1 adversarial delay regime -- run as *one* :class:`BatchRunner`
    batch through the padded mixed-geometry stack (delay models are
    per-trial inputs, so the two regimes share the stack; depth
    compaction retires each diameter's rows as its shallower grid
    finishes).  ``executor``/``shards`` are forwarded to
    :class:`BatchRunner` and the baseline simulations stay serial.  The
    Gradient TRIX batch consumes only folded skew maxima, so it streams
    by default (``store_times=False``, bit-identical);
    ``store_times=True`` materializes the pulse-time block again.

    Example
    -------
    >>> from repro.experiments.table1 import run_table1
    >>> result = run_table1(diameters=(8,), seeds=(0,), num_pulses=2)
    >>> sorted({row.method for row in result.rows})
    ['gradient-trix', 'hex', 'hex+crash', 'naive-trix']
    """
    rows: List[Table1Row] = []
    runner = BatchRunner(
        num_pulses=num_pulses,
        executor=executor,
        shards=shards,
        store_times=store_times,
    )
    all_configs = {
        diameter: [
            standard_config(diameter, seed=seed, num_pulses=num_pulses)
            for seed in seeds
        ]
        for diameter in diameters
    }
    gt_trials, gt_cells = table1_trials(
        diameters, seeds, num_pulses=num_pulses, configs=all_configs
    )
    gt_batch = runner.run(gt_trials)
    gt_max_local = gt_batch.max_local_skews()
    gt_max_global = gt_batch.global_skews()

    for diameter in diameters:
        configs = all_configs[diameter]
        normal_cell = gt_cells[(diameter, "normal")]
        worst_cell = gt_cells[(diameter, "worst")]
        gt_local = float(gt_max_local[normal_cell].max())
        gt_global = float(gt_max_global[normal_cell].max())
        gt_worst = float(gt_max_local[worst_cell].max())

        trix_local, trix_global, trix_worst = 0.0, 0.0, 0.0
        hex_local, hex_crash_local = 0.0, 0.0
        for seed, config in zip(seeds, configs):
            p = config.params
            trix = NaiveTrixSimulation(
                config.graph,
                p,
                delay_model=config.delay_model,
                clock_rates=config.clock_rates,
            ).run(num_pulses)
            trix_local = max(trix_local, trix.max_local_skew())
            trix_global = max(trix_global, trix.global_skew())

            trix_w = NaiveTrixSimulation(
                config.graph,
                p,
                delay_model=_adversarial_delays(p),
                clock_rates=config.clock_rates,
            ).run(num_pulses)
            trix_worst = max(trix_worst, trix_w.max_local_skew())

            width = config.graph.width
            hex_delays = StaticDelayModel(p.d, p.u, seed=seed + 101)
            hexsim = HexSimulation(
                width, config.graph.num_layers, p, delay_model=hex_delays
            ).run(num_pulses)
            hex_local = max(hex_local, hexsim.max_local_skew())
            if hex_crash:
                crash_layer = max(1, config.graph.num_layers // 2)
                hexcrash = HexSimulation(
                    width,
                    config.graph.num_layers,
                    p,
                    delay_model=hex_delays,
                    crashed={(width // 2, crash_layer)},
                ).run(num_pulses)
                hex_crash_local = max(hex_crash_local, hexcrash.max_local_skew())

        p = standard_config(diameter).params
        kappa = p.kappa
        rows.append(
            Table1Row(
                "gradient-trix", diameter, gt_local, gt_worst, gt_global,
                p.local_skew_bound(diameter),
            )
        )
        rows.append(
            Table1Row(
                "naive-trix", diameter, trix_local, trix_worst, trix_global,
                p.u * diameter,
            )
        )
        rows.append(
            Table1Row(
                "hex", diameter, hex_local, float("nan"), float("nan"),
                p.d + p.u**2 * diameter / p.d,
            )
        )
        if hex_crash:
            rows.append(
                Table1Row(
                    "hex+crash", diameter, hex_crash_local, float("nan"),
                    float("nan"),
                    2.0 * p.d + p.u**2 * diameter / p.d + kappa,
                )
            )

    result = Table1Result(rows=rows)
    if len(diameters) >= 2:
        for method in ("gradient-trix", "naive-trix"):
            series = result.local_skews(method)
            xs = [x for x, _ in series]
            ys = [max(y, 1e-12) for _, y in series]
            result.fits[method] = fit_power(xs, ys)
    return result
