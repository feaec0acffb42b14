"""Batched multi-trial runner for the fast simulator.

Experiment drivers used to run one ``(seed, fault_plan, params)`` cell at a
time and reduce skews with per-result helpers in a Python loop.  This
module sweeps many trials in one call instead:

* compatible trials advance through the pulse/layer recurrence *together*
  via the trial-stacked ``(S, B, W)`` kernel of
  :class:`~repro.core.fast_batch.TrialStack` -- one array op per layer
  step for the whole batch and a block of ``B`` pulses instead of one
  per trial and pulse.  Trials with
  *different* geometries, parameters, and numeric policy knobs stack too
  (padded to ``(S, W_max)`` with inert cells; see the ``fast_batch``
  module docstring): grouping is by algorithm variant and the structural
  policy switches only, so a mixed-width diameter sweep runs as one
  stack, and
* every stack folds its skew and correction statistics while it runs
  (:class:`~repro.analysis.streaming.StreamedStats`), and
  :class:`BatchResult` serves every statistic from those folds; with
  ``store_times=True`` (the default) the per-trial matrices are also
  stacked along a leading *trial axis* -- ``times`` of shape
  ``(S, K, L_max, W_max)``, NaN-padded when grids differ.

One measured rule (see :func:`_pick_shards`) decides how every run
executes: a large grid runs in two shards, the first in this process
and the second on one process-wide worker pool of
:mod:`concurrent.futures`, forked on first use and kept across calls;
every other grid runs serially.  Every trial is deterministic given its
spec, so the assembled :class:`BatchResult` is identical for every
shard count (the test suite pins this).  A shard whose trials do not
pickle (a lambda delay classifier or rate provider) runs in this
process instead.

:class:`BatchRunner` is the backend of the ``thm11_local_skew``,
``thm13_random_faults``, ``cor15_variation``, and ``table1`` experiment
drivers; new parameter studies should build on it rather than hand-rolled
seed loops.

Example
-------
>>> from repro.experiments.batch import BatchRunner, BatchTrial
>>> from repro.experiments.common import standard_config
>>> trials = [BatchTrial(config=standard_config(8, seed=s)) for s in range(16)]
>>> batch = BatchRunner(num_pulses=4).run(trials)
>>> batch.max_local_skews().shape
(16,)
"""

from __future__ import annotations

import enum
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.correction import CorrectionPolicy, PAPER_POLICY
from repro.core.fast import FastResult, FastSimulation, RateProvider
from repro.core.fast_batch import TrialStack
from repro.core.layer0 import Layer0Schedule
from repro.delays.models import DelayModel
from repro.experiments.common import ExperimentConfig, standard_config
from repro.faults.campaign import ChaosCampaign
from repro.faults.injection import FaultPlan
from repro.analysis.skew import masked_max

__all__ = ["BatchTrial", "BatchResult", "BatchRunner", "CONFIG_RATES"]


class _ConfigRates(enum.Enum):
    """Pickle-stable sentinel type; see :data:`CONFIG_RATES`."""

    CONFIG_RATES = "CONFIG_RATES"


#: Sentinel: "use the trial config's sampled clock rates" (``None`` means
#: rate-1 clocks everywhere, matching :class:`FastSimulation`).  An enum
#: member rather than a bare ``object()`` so the ``is CONFIG_RATES``
#: identity test survives pickling: enum members unpickle by name to the
#: module-level singleton, which is what lets :class:`BatchTrial` specs
#: round-trip into the pool's worker processes.
CONFIG_RATES = _ConfigRates.CONFIG_RATES


@dataclass
class BatchTrial:
    """One cell of a sweep: a config plus per-trial overrides.

    Every override defaults to "inherit from ``config``" (``delay_model``,
    ``clock_rates``) or to the :class:`FastSimulation` default
    (``fault_plan``, ``layer0``, ``policy``, ``algorithm``).
    ``campaign`` attaches a :class:`~repro.faults.campaign.ChaosCampaign`
    (declared churn over the trial's base graph); campaigns are plain
    frozen-dataclass schedules, so campaign trials pickle into
    pooled shards like any other, and their per-trial
    churn accounting lands in :attr:`BatchResult.campaign_stats`.
    """

    config: ExperimentConfig
    fault_plan: Optional[FaultPlan] = None
    layer0: Optional[Layer0Schedule] = None
    delay_model: Optional[DelayModel] = None
    clock_rates: RateProvider = field(default=CONFIG_RATES)  # type: ignore[assignment]
    policy: CorrectionPolicy = PAPER_POLICY
    algorithm: str = "full"
    campaign: Optional[ChaosCampaign] = None
    label: str = ""

    def simulation(self) -> FastSimulation:
        """The :class:`FastSimulation` realizing this trial."""
        rates = (
            self.config.clock_rates
            if self.clock_rates is CONFIG_RATES
            else self.clock_rates
        )
        return FastSimulation(
            self.config.graph,
            self.config.params,
            delay_model=self.delay_model or self.config.delay_model,
            clock_rates=rates,
            fault_plan=self.fault_plan,
            layer0=self.layer0,
            policy=self.policy,
            algorithm=self.algorithm,
            campaign=self.campaign,
        )

    @property
    def num_faults(self) -> int:
        """Number of faulty nodes injected into this trial."""
        return 0 if self.fault_plan is None else len(self.fault_plan)


def _rows_max(values: np.ndarray, empty: float = 0.0) -> np.ndarray:
    """Last-axis max ignoring NaN padding; all-NaN/empty rows -> ``empty``."""
    return masked_max(values, axis=-1, empty=empty)


def _padded(arrays: Sequence[np.ndarray], shape: Tuple, fill) -> np.ndarray:
    """Stack ``arrays`` along a new leading axis into ``shape``, ``fill``
    past each array's own extent."""
    out = np.full(shape, fill)
    for s, array in enumerate(arrays):
        out[(s, *map(slice, array.shape))] = array
    return out


#: Progress hook: called with one dict per executor event (see
#: :meth:`BatchRunner.run`).
ShardCallback = Callable[[Dict], None]


def _emit(on_shard: Optional[ShardCallback], event: Dict) -> None:
    """Deliver one progress event to the optional shard callback."""
    if on_shard is not None:
        on_shard(dict(event))


#: The worker pool, shared by every pooled run in this process (see
#: :func:`_worker_pool`).
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's;
    the host's count where the platform has no affinity call).

    Sizes the worker pool and the executor rule, so a process pinned to
    one CPU never shards.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_pool(
    stale: Optional[ProcessPoolExecutor] = None,
) -> ProcessPoolExecutor:
    """The process-wide pool of one worker per usable CPU.

    Forked on the first process run and kept for every later one, so
    runs pay no start-up.  A pool
    passed as ``stale`` (its caller saw it break) is replaced when it is
    still the current one.  Interpreter exit joins the pool through
    :mod:`concurrent.futures`' own exit hook.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL is stale:
            _POOL = ProcessPoolExecutor(max_workers=_usable_cpus())
        return _POOL


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool so the next process run forks a fresh one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is pool:
            _POOL = None
    pool.shutdown(wait=False)


def _shard_bounds(num_trials: int, shards: int) -> List[int]:
    """Balanced shard boundaries: ``shards + 1`` offsets into the trial list.

    ``np.array_split`` semantics -- the first ``num_trials % shards``
    shards take one extra trial, so shard sizes never differ by more
    than one.
    """
    base, extra = divmod(num_trials, shards)
    return [i * base + min(i, extra) for i in range(shards + 1)]


#: The executor rule's two measured constants.  A run shards when the
#: larger of its two shards weighs at least ``_SHARD_CELLS``: its cells
#: (pulses x layers x width, summed over its trials; none when the run
#: keeps its matrices) plus ``_EDGE_CELLS`` per delay edge whose model
#: has gathered nothing yet, since the second CPU then gathers half of
#: them too.
#: Below it the pool's hand-off, pickling and shared-host slowdown cost
#: about what the second CPU saves.  ``executor_rule`` in
#: ``benchmarks/BENCH_batch.json`` holds serial and pooled medians on
#: both sides of it (two CPUs of a 2-core x86-64 host).  Until the pool
#: exists a run must also weigh ``_FORK_CELLS`` more: the first pooled
#: run in a process forks the workers and runs their first shard cold,
#: about 30 ms on that host (a fresh process's cold 17-trial thm13 grid
#: over 8 pulses took 99-138 ms pooled against 76-118 ms serially).
_SHARD_CELLS = 1 << 17
_EDGE_CELLS = 8
_FORK_CELLS = 1 << 18


def _cells(trials: Sequence[BatchTrial], num_pulses: int) -> int:
    """Simulated cells of ``trials``: pulses x layers x width, summed."""
    return num_pulses * sum(
        t.config.graph.num_layers * t.config.graph.width for t in trials
    )


def _cold_edges(trials: Sequence[BatchTrial]) -> int:
    """Delay edges of ``trials`` whose models have filled neither memo (a
    pulse-varying one keeps only walks): every layer above 0 reads one
    own-copy and two neighbour-copy edges per base edge."""
    return sum(
        (t.config.graph.num_layers - 1)
        * (t.config.graph.width + 2 * len(t.config.graph.base.edges))
        for t in trials
        if not (_delay_cache(t) or _delay_model(t)._cache)
    )


def _pick_shards(
    trials: Sequence[BatchTrial], num_pulses: int, store_times: bool
) -> int:
    """The executor rule: 2 to run in two shards, or 1 to run serially.

    Applied to every run.  A run shards when two
    CPUs are usable (:func:`_usable_cpus`) and its larger shard weighs
    at least :data:`_SHARD_CELLS` (plus :data:`_FORK_CELLS` until the
    pool exists): its cells, plus :data:`_EDGE_CELLS` per cold delay
    edge, faulted or not.  When the run keeps its
    matrices, its cells weigh nothing: shipping a cell's pulse times
    back costs about what computing it on the other CPU saves, so on
    the measured grids only a cold gather then makes the pool pay.  The
    rule stops at two shards, the most it was measured with.
    """
    if min(2, _usable_cpus(), len(trials)) < 2:
        return 1
    larger = trials[: _shard_bounds(len(trials), 2)[1]]
    cells = 0 if store_times else _cells(larger, num_pulses)
    weight = cells + _EDGE_CELLS * _cold_edges(larger)
    threshold = _SHARD_CELLS + (_FORK_CELLS if _POOL is None else 0)
    return 2 if weight >= threshold else 1


def _delay_model(trial: BatchTrial):
    """The delay model ``trial`` runs with."""
    return trial.delay_model or trial.config.delay_model


def _delay_cache(trial: BatchTrial) -> Dict:
    """``trial``'s delay model's cache of gathered arrays."""
    return _delay_model(trial)._edge_array_cache


class BatchResult:
    """Stacked outcome of a multi-trial sweep.

    Attributes
    ----------
    trials:
        The :class:`BatchTrial` specs, in run order.
    times, corrections, effective_corrections:
        Arrays of shape ``(S, K, L_max, W_max)`` -- the per-trial
        :class:`~repro.core.fast.FastResult` matrices stacked along the
        trial axis.  When trial grids differ, narrower/shallower trials
        are NaN-padded past their own ``(L_s, W_s)`` window; NaN is the
        simulator's "no pulse" marker, so padding is invisible to every
        masked reducer.
    faulty_masks:
        Boolean ``(S, L_max, W_max)`` (False-padded).
    results:
        The underlying per-trial :class:`FastResult` objects (for drill-in
        and for ``fault_sends``).
    stack_groups:
        Trial-index lists that advanced through one shared
        :class:`~repro.core.fast_batch.TrialStack` each.
    compaction_stats:
        One dict per stack group (parallel to ``stack_groups``): the
        compaction accounting of that group's
        :class:`~repro.core.fast_batch.TrialStack` run along *both* axes
        -- padded vs executed row steps with min/max depth (depth axis),
        padded vs executed lane steps with min/max width (width axis),
        and the batched-fallback accounting --
        ``fallback_cells`` (kernel-rejected cells the replay resolved,
        never by per-cell Python loops), ``fallback_batches`` (summed
        over trials: the (pulse, layer) steps each trial had such cells
        in) and ``fallback_passes`` (the stack's resolver calls, one per
        (pulse block, layer) step with any such cell, so at most
        ``fallback_batches``), and ``pulse_blocks`` / ``block_pulses``
        (the run's pulse blocks and the most pulses one held) -- so
        "how much padding did
        compaction reclaim?" is on record next to "which trials
        stacked".
    fallback_reasons:
        ``{trial_index: reason}`` for executor-level events: when a
        pooled shard's worker dies (``BrokenProcessPool``) and the
        shard is re-run in-parent, or a shard does not pickle and runs
        in-parent, every trial of that shard carries the
        note -- so a trial is *both* in a stack group and annotated
        here.  Empty when nothing went wrong.
    campaign_stats:
        ``{trial_index: churn_stats}`` for every trial that ran under a
        :class:`~repro.faults.campaign.ChaosCampaign` -- the compiled
        schedule's accounting (epoch count, boundary pulses, action
        count, last event pulse), parallel to ``fallback_reasons``.
        Propagated across process shards (it rides on each
        :class:`FastResult`); empty for campaign-free batches.

    Notes
    -----
    Every statistic accessor reads the statistics each run folded while
    it ran (``result.streamed`` / ``streamed_row``; see
    :class:`~repro.analysis.streaming.StreamedStats`), whether or not
    the matrices were kept, so a result that carries no fold is rejected
    here.  The folds are bitwise equal to the array reducers of
    :mod:`repro.analysis.skew` on each trial's own ``(L_s, W_s)``
    window, the test suite's independent reference.

    When the whole batch ran as **one** stack, the matrices above *are*
    the stack's shared block (no re-copy; ``np.shares_memory`` with every
    per-trial result) and are frozen read-only, as are the per-trial
    result windows -- so no consumer can corrupt another's view of the
    shared memory.  Multi-group and multi-shard batches materialize
    fresh (writable) stacked copies.

    When the runner *streamed* (``store_times=False``), ``times``,
    ``corrections``, and ``effective_corrections`` are ``None`` and
    :attr:`streaming` is True: the ``(S, K, L, W)`` block was never
    allocated.  ``faulty_masks`` is always materialized (it is
    ``O(S, L, W)``, the streaming memory budget).
    """

    def __init__(
        self,
        trials: Sequence[BatchTrial],
        results: Sequence[FastResult],
        stack_groups: Optional[Sequence[Sequence[int]]] = None,
        fallback_reasons: Optional[Dict[int, str]] = None,
        compaction_stats: Optional[Sequence[Dict]] = None,
    ) -> None:
        self.trials = list(trials)
        self.results = list(results)
        self.graph = results[0].graph
        self.num_pulses = results[0].num_pulses
        if any(r.num_pulses != self.num_pulses for r in results):
            raise ValueError("trials of one batch must share num_pulses")
        missing = [s for s, r in enumerate(results) if r.streamed is None]
        if missing:
            raise ValueError(
                f"trials {missing} carry no folded statistics "
                "(result.streamed); run them through a TrialStack, "
                "FastSimulation.run or BatchRunner"
            )
        self.stack_groups = [list(g) for g in (stack_groups or [])]
        self.compaction_stats = [dict(c) for c in (compaction_stats or [])]
        self.fallback_reasons = dict(fallback_reasons or {})
        self.campaign_stats = {
            s: dict(r.churn_stats)
            for s, r in enumerate(results)
            if getattr(r, "churn_stats", None) is not None
        }
        self.streaming = any(r.times is None for r in results)
        if self.streaming and not all(r.times is None for r in results):
            raise ValueError(
                "cannot mix streamed (store_times=False) and "
                "materialized results in one batch"
            )
        num_layers = max(r.graph.num_layers for r in results)
        width = max(r.graph.width for r in results)
        self._num_layers = num_layers
        block = getattr(results[0], "stack_block", None)
        if (
            not self.streaming
            and block is not None
            and block.times.shape[0] == len(results)
            and all(
                getattr(r, "stack_block", None) is block and r.stack_row == s
                for s, r in enumerate(results)
            )
        ):
            # Single-stack batch: the TrialStack already materialized the
            # padded (S, K, L_max, W_max) block these results window into;
            # adopt it instead of re-copying.  The block arrives frozen.
            self.times = block.times
            self.corrections = block.corrections
            self.effective_corrections = block.effective_corrections
            self.faulty_masks = block.faulty
            return
        self.faulty_masks = _padded(
            [r.faulty_mask for r in results],
            (len(results), num_layers, width),
            False,
        )
        if self.streaming:
            self.times = None
            self.corrections = None
            self.effective_corrections = None
            return
        shape = (len(results), self.num_pulses, num_layers, width)
        self.times = _padded([r.times for r in results], shape, np.nan)
        self.corrections = _padded(
            [r.corrections for r in results], shape, np.nan
        )
        self.effective_corrections = _padded(
            [r.effective_corrections for r in results], shape, np.nan
        )

    def __len__(self) -> int:
        return len(self.trials)

    # ------------------------------------------------------------------
    # Statistics, read from each run's fold
    # ------------------------------------------------------------------
    def _layer_stat(self, name: str, columns: int, empty: float) -> np.ndarray:
        """Gather a folded per-layer statistic into ``(S, cols)``.

        NaN past a trial's own layer count -- those layers do not exist,
        which is distinct from ``empty`` ("layer exists but had nothing
        to fold").
        """
        out = np.full((len(self), columns), np.nan)
        for s, r in enumerate(self.results):
            values = r.streamed.trial_values(name, r.streamed_row, empty=empty)
            out[s, : values.shape[-1]] = values
        return out

    def local_skews(self, empty: float = 0.0) -> np.ndarray:
        """Per-trial, per-layer ``L_l``; shape ``(S, L_max)``.

        Mixed-geometry batches report NaN for layers a trial does not
        have.
        """
        return self._layer_stat("local", self._num_layers, empty)

    def max_local_skews(self) -> np.ndarray:
        """Per-trial ``sup_l L_l``; shape ``(S,)``."""
        return _rows_max(self.local_skews())

    def inter_layer_skews(self, empty: float = 0.0) -> np.ndarray:
        """Per-trial, per-boundary ``L_{l,l+1}``; shape ``(S, L_max - 1)``."""
        return self._layer_stat(
            "inter_layer", max(self._num_layers - 1, 0), empty
        )

    def max_inter_layer_skews(self) -> np.ndarray:
        """Per-trial ``sup_l L_{l,l+1}``; shape ``(S,)``."""
        return _rows_max(self.inter_layer_skews())

    def overall_skews(self) -> np.ndarray:
        """Per-trial ``L = sup_l max(L_l, L_{l,l+1})``; shape ``(S,)``."""
        # Max is exact in FP, so composing the two folds matches
        # overall_skew_layers bitwise.  -inf keeps depth-1 trials (no
        # boundaries at all) on their local max alone, mirroring the
        # zero-column short-circuit of inter_layer_skew_layers.
        local_max = _rows_max(self.local_skews())
        inter = self.inter_layer_skews()
        if inter.shape[-1] == 0:
            return local_max
        return np.maximum(local_max, _rows_max(inter, empty=-np.inf))

    def global_skews(self) -> np.ndarray:
        """Per-trial global skew (largest same-pulse spread); shape ``(S,)``."""
        return _rows_max(self._layer_stat("global", self._num_layers, np.nan))

    def correction_stats(self) -> Dict[str, np.ndarray]:
        """Per-trial correction summary: max/mean ``|C|`` and count.

        Over the finite corrections (layer 0 and via-``H_max`` iterations
        are NaN) of each trial's own ``(L_s, W_s)`` window, folded pulse
        by pulse, layer partials in order -- bitwise what
        :func:`~repro.analysis.streaming.fold_correction_planes` gives on
        the trial's materialized matrices.
        """
        rows = [r.streamed.trial_stats(r.streamed_row) for r in self.results]
        return {
            "max_abs": np.array([row["max_abs"] for row in rows]),
            "mean_abs": np.array([row["mean_abs"] for row in rows]),
            "num_corrections": np.array(
                [row["num_corrections"] for row in rows], dtype=np.int64
            ),
        }

    def num_faults(self) -> np.ndarray:
        """Per-trial injected-fault counts; shape ``(S,)``."""
        return np.array([t.num_faults for t in self.trials], dtype=np.int64)


def _stack_key(trial: BatchTrial) -> Tuple:
    """Hashable grouping key for trials that can share a :class:`TrialStack`.

    Groups by the requirements of
    :func:`repro.core.fast_batch.stack_compatibility`: algorithm (both
    ``"full"`` and ``"simplified"`` stack, but not together) and the
    structural policy switches.  Geometry, parameters, and ``jump_slack``
    ride along through the padded kernel -- a thm11-style mixed-width
    sweep is one group.
    """
    return (
        trial.algorithm,
        trial.policy.discretize,
        trial.policy.stick_to_median,
    )


def _run_shard(
    trials: List[BatchTrial], num_pulses: int, store_times: bool
) -> Tuple[List[FastResult], List[List[int]], List[Dict]]:
    """Run one contiguous shard in this process: one :class:`TrialStack`
    per stack key.

    Returns ``(results, stack_groups, compaction_stats)`` with
    shard-local indices -- every trial belongs to exactly one stack
    group, whose compaction accounting is recorded.
    """
    results: List[Optional[FastResult]] = [None] * len(trials)
    groups: Dict[Tuple, List[int]] = {}
    for i, trial in enumerate(trials):
        groups.setdefault(_stack_key(trial), []).append(i)
    compaction: List[Dict] = []
    for indices in groups.values():
        stack = TrialStack([trials[i].simulation() for i in indices])
        stacked = stack.run(num_pulses, store_times=store_times)
        for i, result in zip(indices, stacked):
            results[i] = result
        compaction.append(dict(stack.compaction_stats))
    return results, list(groups.values()), compaction  # type: ignore[return-value]


#: The two memos (gathered arrays, per-edge values or walks) of each delay
#: model a pool worker keeps between runs, keyed by the model's pickled
#: state (a model is a deterministic function of it), least recently used first.
_WORKER_ARRAYS: "OrderedDict[bytes, Tuple[Dict, Dict]]" = OrderedDict()
#: Delay models whose arrays one worker keeps (about 45 KiB each at
#: D = 32, 170 KiB at D = 64).
_WORKER_MODELS = 64


def _warm_in_worker(trial: BatchTrial) -> None:
    """Hand ``trial``'s delay model the memos this worker filled for an
    equal model on an earlier run, or keep the ones this run fills.

    A model pickles without its memos
    (:meth:`~repro.delays.models.DelayModel.__getstate__`), so its
    pickled bytes name it whether or not the parent's copy is warm.
    """
    model = _delay_model(trial)
    key = pickle.dumps(model, pickle.HIGHEST_PROTOCOL)
    if key in _WORKER_ARRAYS:
        _WORKER_ARRAYS.move_to_end(key)
        model._edge_array_cache, model._cache = _WORKER_ARRAYS[key]
        return
    _WORKER_ARRAYS[key] = (model._edge_array_cache, model._cache)
    while len(_WORKER_ARRAYS) > _WORKER_MODELS:
        _WORKER_ARRAYS.popitem(last=False)


def _run_pickled_shard(
    blob: bytes, num_pulses: int, store_times: bool
) -> Tuple[List[FastResult], List[List[int]], List[Dict]]:
    """Pool worker: :func:`_run_shard` on a pickled shard.

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it under every start method (fork, spawn, forkserver).  The
    parent pickles the trials itself, so a shard that does not pickle
    fails there, before it reaches the pool.  Shards ship their folded
    statistics back through the results' ``streamed`` attribute
    (``FastResult.__getstate__`` keeps it).  Delay models arrive without
    their gathered arrays and this worker keeps the ones it gathers
    (:func:`_warm_in_worker`), so a re-run that lands on it gathers
    nothing; the parent's copies stay as they were.
    """
    trials = pickle.loads(blob)
    for trial in trials:
        _warm_in_worker(trial)
    return _run_shard(trials, num_pulses, store_times)


class BatchRunner:
    """Run many ``(seed, fault_plan, params)`` trials and stack the results.

    Trials may differ in geometry, parameters, faults, and campaigns;
    trials sharing an algorithm and the structural policy switches
    advance through one shared :class:`TrialStack` kernel (padding
    narrower/shallower trials with inert cells, compacting the rows and
    lanes each step needs).  One measured rule (:func:`_pick_shards`)
    decides each run's shards: a large grid (16 streamed trials at
    D = 32 over 64 pulses) runs its first half in this process and its
    second on a process-wide pool of one worker per usable CPU, forked
    on the first pooled run and kept across calls; service-sized grids
    and the warm 8-pulse thm13 grid of ``fault_horizon`` run serially.
    Pooled trials arrive pickled without their gathered delay arrays; a
    worker gathers them on its first run of a model and keeps them for
    later runs.  Results are bit-identical for every shard count.

    Example
    -------
    >>> from repro.experiments.batch import BatchRunner, BatchTrial
    >>> from repro.experiments.common import standard_config
    >>> trials = [BatchTrial(config=standard_config(4, seed=s)) for s in (0, 1)]
    >>> batch = BatchRunner(num_pulses=2).run(trials)
    >>> batch.max_local_skews().shape
    (2,)

    Parameters
    ----------
    num_pulses:
        Pulses simulated per trial.
    store_times:
        Skew and correction statistics fold online either way, one
        (pulse block, layer) step at a time.  ``True`` (default) also
        keeps the stacked ``(S, K, L, W)`` pulse-time block.  ``False``
        streams: the result never allocates the block -- memory drops
        from ``O(S * K * L * W)`` to a two-layer ring of one pulse
        block, ``O(S * B * W)`` -- and serves the same statistics.
    """

    def __init__(self, num_pulses: int = 4, store_times: bool = True) -> None:
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {num_pulses}")
        self.num_pulses = num_pulses
        self.store_times = store_times

    def run(
        self,
        trials: Sequence[BatchTrial],
        on_shard: Optional[ShardCallback] = None,
    ) -> BatchResult:
        """Execute every trial and return the stacked :class:`BatchResult`.

        Mixed grid shapes are welcome: the result matrices NaN-pad past
        each trial's own window (see :class:`BatchResult`).

        ``on_shard`` is an optional progress hook (used by the
        :mod:`repro.service` job runner to stream per-shard progress):
        it receives one dict per executor event -- a ``plan`` event
        naming the executor the rule picked (``"serial"`` or
        ``"process"``), the shard count and sizes, then one ``shard``
        event per shard with ``status`` ``"done"``, ``"lost"`` (its
        worker died; see :meth:`_run_chunks`), ``"in_parent"`` (a shard
        that does not pickle ran in the parent) or ``"retried"`` (the
        in-parent re-run of a lost shard completed).  A serial run emits
        the same shape with a single shard.
        """
        trials = list(trials)
        if not trials:
            raise ValueError("need at least one trial")
        shards = _pick_shards(trials, self.num_pulses, self.store_times)
        bounds = _shard_bounds(len(trials), shards)
        chunks = [(a, trials[a:b]) for a, b in zip(bounds, bounds[1:])]
        _emit(
            on_shard,
            {
                "event": "plan",
                "executor": "process" if shards > 1 else "serial",
                "shards": shards,
                "sizes": [len(chunk) for _, chunk in chunks],
            },
        )
        outputs, notes = self._run_chunks(chunks, on_shard)
        results: List[FastResult] = []
        stack_groups: List[List[int]] = []
        compaction: List[Dict] = []
        reasons: Dict[int, str] = {}
        for j, ((offset, chunk), (shard_results, groups, stats)) in enumerate(
            zip(chunks, outputs)
        ):
            results.extend(shard_results)
            stack_groups.extend([offset + i for i in g] for g in groups)
            compaction.extend(stats)
            reasons.update((offset + i, notes[j]) for i in range(len(chunk)) if j in notes)
        return BatchResult(
            trials,
            results,
            stack_groups=stack_groups,
            fallback_reasons=reasons,
            compaction_stats=compaction,
        )

    def _run_chunks(
        self,
        chunks: List[Tuple[int, List[BatchTrial]]],
        on_shard: Optional[ShardCallback],
    ) -> Tuple[List[Tuple], Dict[int, str]]:
        """Each chunk's :func:`_run_shard` output, in chunk order, and
        ``{chunk: note}`` for the chunks that ran in-parent instead of on
        the pool.

        The first chunk runs in this process while the process-wide pool
        runs the others, one task per chunk.  Per-trial execution is
        deterministic given the trial spec, so the reassembled results
        are independent of the shard count and of where each chunk ran.

        Failure isolation: a worker killed mid-shard (OOM, signal,
        ``os._exit``) breaks the pool, and each of the futures it held
        raises ``BrokenProcessPool``.  Futures are collected one by one,
        so completed shards keep their results; the broken pool is
        discarded (the next run forks a fresh one) and the lost shards
        are re-run serially in-parent (deterministic trials make the
        re-run bitwise identical), noted for every trial of a lost
        shard.  A pool that broke while idle (a worker died between
        runs) is replaced before anything is submitted, so that run
        loses nothing.  Exceptions *raised by a trial itself* still
        propagate unchanged -- only executor-level worker death is
        retried.

        The parent pickles each pooled chunk before submitting it.  A
        chunk that does not pickle runs in-parent too, and its trials
        carry the reason.
        """
        knobs = (self.num_pulses, self.store_times)
        outputs: List[Optional[Tuple]] = [None] * len(chunks)
        notes: Dict[int, str] = {}

        def finish(j: int, status: str, output: Optional[Tuple]) -> None:
            """Record chunk ``j``'s output and emit its shard event."""
            offset, chunk = chunks[j]
            outputs[j] = output
            _emit(
                on_shard,
                dict(event="shard", shard=j, offset=offset, trials=len(chunk), status=status),
            )

        local = [0]
        blobs: Dict[int, bytes] = {}
        for j, (_, chunk) in enumerate(chunks[1:], start=1):
            try:
                blobs[j] = pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                local.append(j)
                notes[j] = (
                    "shard run in-parent: its trials do not pickle "
                    f"({type(exc).__name__}: {exc})"
                )

        def submit(pool: ProcessPoolExecutor) -> Dict:
            """Queue one task per pickled chunk: ``{future: chunk}``."""
            return {
                pool.submit(_run_pickled_shard, blob, *knobs): j
                for j, blob in blobs.items()
            }

        futures: Dict = {}
        if blobs:
            pool = _worker_pool()
            try:
                futures = submit(pool)
            except BrokenProcessPool:
                pool = _worker_pool(stale=pool)
                futures = submit(pool)
        for j in local:
            output = _run_shard(chunks[j][1], *knobs)
            finish(j, "in_parent" if j in notes else "done", output)
        lost: List[int] = []
        for future in as_completed(futures):
            j = futures[future]
            try:
                output = future.result()
            except BrokenProcessPool as exc:
                # One dead worker breaks the whole pool, so every
                # still-pending shard lands here too; each is re-run
                # below.  Completed shards keep their results --
                # nothing is discarded.
                lost.append(j)
                why = f"{type(exc).__name__}: {exc}" if str(exc) else (
                    type(exc).__name__
                )
                notes[j] = (
                    f"process shard re-run in-parent after a worker death ({why})"
                )
                finish(j, "lost", None)
                continue
            finish(j, "done", output)
        if lost:
            _discard_pool(pool)
        for j in sorted(lost):
            finish(j, "retried", _run_shard(chunks[j][1], *knobs))
        return outputs, notes

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def seed_sweep(
        diameter: int,
        seeds: Sequence[int],
        num_pulses: int = 4,
        params=None,
        num_layers: Optional[int] = None,
        fault_plan_factory=None,
    ) -> List[BatchTrial]:
        """Standard-config trials over ``seeds`` at one diameter.

        ``fault_plan_factory`` (``config -> FaultPlan | None``) attaches a
        per-seed fault plan; the default is fault-free.
        """
        trials: List[BatchTrial] = []
        for seed in seeds:
            config = standard_config(
                diameter,
                seed=seed,
                num_layers=num_layers,
                num_pulses=num_pulses,
                params=params,
            )
            plan = fault_plan_factory(config) if fault_plan_factory else None
            trials.append(
                BatchTrial(config=config, fault_plan=plan, label=f"seed={seed}")
            )
        return trials
