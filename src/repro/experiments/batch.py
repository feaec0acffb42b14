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

For fault-heavy sweeps whose cells mostly go through the batched fallback,
``BatchRunner(executor="process", shards=N)`` splits the trial list into
``N`` shards and runs them on one process-wide worker pool of
:mod:`concurrent.futures`, forked on first use and kept across calls;
every trial is deterministic given its spec, so
the assembled :class:`BatchResult` is identical for every ``shards``
setting (the test suite pins this).  Trials must be picklable for the
process executor -- use module-level functions/classes, not lambdas, for
delay classifiers and rate providers.

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
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
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
#: round-trip into ``executor="process"`` worker processes.
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
    ``executor="process"`` shards like any other, and their per-trial
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


#: The process executor's worker pool, shared by every run in this
#: process (see :func:`_worker_pool`).
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _worker_pool(
    stale: Optional[ProcessPoolExecutor] = None,
) -> ProcessPoolExecutor:
    """The process-wide pool of ``os.cpu_count()`` workers.

    Forked on the first process run and kept for every later one, so
    runs pay no start-up and worker caches survive between them.  A pool
    passed as ``stale`` (its caller saw it break) is replaced when it is
    still the current one.  Interpreter exit joins the pool through
    :mod:`concurrent.futures`' own exit hook.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL is stale:
            _POOL = ProcessPoolExecutor(max_workers=os.cpu_count() or 1)
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
    than one.  (The previous ``np.linspace(...).astype(int)`` bounds
    *truncated* instead of rounding, which for some ``(trials, shards)``
    combinations produced maximally uneven chunks -- e.g. a first shard
    carrying twice its share while another ran nearly empty.)
    """
    base, extra = divmod(num_trials, shards)
    bounds = [0]
    for i in range(shards):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    return bounds


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
        the ``neighbor_backend`` (``"dense"``/``"csr"``) the density
        heuristic chose, and the batched-fallback accounting --
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
        process shard's worker dies (``BrokenProcessPool``) and the
        shard is re-run in-parent, every trial of that shard carries the
        retry note -- so a trial is *both* in a stack group and
        annotated here.  Empty when nothing went wrong.
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
    trials: List[BatchTrial],
    num_pulses: int,
    store_times: bool,
) -> Tuple[List[FastResult], List[List[int]], List[Dict]]:
    """Process-executor worker: run one contiguous shard serially.

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it under every start method (fork, spawn, forkserver).
    Returns the shard's results plus its shard-local stack-group indices
    and compaction stats (re-offset by the parent).
    Shards ship their folded statistics back through the results'
    ``streamed`` attribute (``FastResult.__getstate__`` keeps it).
    """
    runner = BatchRunner(num_pulses=num_pulses, store_times=store_times)
    return runner._run_serial(trials)


class BatchRunner:
    """Run many ``(seed, fault_plan, params)`` trials and stack the results.

    Trials may differ in geometry, parameters, faults, and campaigns;
    trials sharing an algorithm and the structural policy switches
    advance through one shared :class:`TrialStack` kernel (padding
    narrower/shallower trials with inert cells, compacting the rows and
    lanes each step needs).  Results are bit-identical across every
    execution strategy.

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
    executor:
        ``"serial"`` (default) or ``"process"``.  The process executor
        shards the trial list across one process-wide pool of
        ``os.cpu_count()`` workers, forked on the first process run and
        kept across calls.  Workers gather each trial's inputs cold
        (trials arrive pickled), so it pays only when per-trial work
        dwarfs that gather and the pickling.  Trials must be picklable.
    shards:
        Number of process shards; defaults to ``os.cpu_count()`` capped at
        the trial count.  Shards beyond the pool's workers queue on it.
        Ignored by the serial executor.
    store_times:
        Skew and correction statistics fold online either way, one
        (pulse block, layer) step at a time.  ``True`` (default) also
        keeps the stacked ``(S, K, L, W)`` pulse-time block.  ``False``
        streams: the result never allocates the block -- memory drops
        from ``O(S * K * L * W)`` to a two-layer ring of one pulse
        block, ``O(S * B * W)`` -- and serves the same statistics.
    """

    def __init__(
        self,
        num_pulses: int = 4,
        executor: str = "serial",
        shards: Optional[int] = None,
        store_times: bool = True,
    ) -> None:
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {num_pulses}")
        if executor not in ("serial", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; use 'serial' or 'process'"
            )
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.num_pulses = num_pulses
        self.executor = executor
        self.shards = shards
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
        naming the shard count and sizes, then one ``shard`` event per
        shard with ``status`` ``"done"``, ``"lost"`` (its worker died;
        see :meth:`_run_process`), or ``"retried"`` (the in-parent
        re-run of a lost shard completed).  The serial executor emits
        the same shape with a single shard.
        """
        trials = list(trials)
        if not trials:
            raise ValueError("need at least one trial")
        reasons: Dict[int, str] = {}
        if self.executor == "process":
            results, groups, compaction, reasons = self._run_process(
                trials, on_shard
            )
        else:
            results, groups, compaction = self._run_single(trials, on_shard)
        return BatchResult(
            trials,
            results,
            stack_groups=groups,
            fallback_reasons=reasons,
            compaction_stats=compaction,
        )

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    def _run_serial(
        self, trials: List[BatchTrial]
    ) -> Tuple[List[FastResult], List[List[int]], List[Dict]]:
        """In-process execution: one :class:`TrialStack` per stack key.

        Returns ``(results, stack_groups, compaction_stats)`` -- every
        trial belongs to exactly one stack group, whose compaction
        accounting is recorded.
        """
        results: List[Optional[FastResult]] = [None] * len(trials)
        stack_groups: List[List[int]] = []
        compaction: List[Dict] = []
        groups: Dict[Tuple, List[int]] = {}
        for i, trial in enumerate(trials):
            groups.setdefault(_stack_key(trial), []).append(i)
        for indices in groups.values():
            stack = TrialStack([trials[i].simulation() for i in indices])
            stacked = stack.run(self.num_pulses, store_times=self.store_times)
            for i, result in zip(indices, stacked):
                results[i] = result
            stack_groups.append(list(indices))
            compaction.append(dict(stack.compaction_stats))
        return results, stack_groups, compaction  # type: ignore[return-value]

    def _run_single(
        self,
        trials: List[BatchTrial],
        on_shard: Optional[ShardCallback] = None,
    ) -> Tuple[List[FastResult], List[List[int]], List[Dict]]:
        """Serial execution wrapped in the one-shard progress protocol."""
        _emit(on_shard, {"event": "plan", "shards": 1, "sizes": [len(trials)]})
        out = self._run_serial(trials)
        _emit(
            on_shard,
            {
                "event": "shard",
                "shard": 0,
                "offset": 0,
                "trials": len(trials),
                "status": "done",
            },
        )
        return out

    def _shard_args(self) -> Tuple:
        """The :func:`_run_shard` knob tuple after the trial chunk."""
        return (self.num_pulses, self.store_times)

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        chunks: List[Tuple[int, List[BatchTrial]]],
    ) -> Dict:
        """Queue one :func:`_run_shard` task per chunk: ``{future: j}``."""
        return {
            pool.submit(_run_shard, chunk, *self._shard_args()): j
            for j, (_, chunk) in enumerate(chunks)
        }

    def _run_process(
        self,
        trials: List[BatchTrial],
        on_shard: Optional[ShardCallback] = None,
    ) -> Tuple[List[FastResult], List[List[int]], List[Dict], Dict[int, str]]:
        """Shard the trial list across worker processes, preserving order.

        Per-trial execution is deterministic given the trial spec, so the
        reassembled result list is independent of the shard count.  Stack
        groups and compaction stats come back shard-local and are
        re-offset to batch indices here.

        Failure isolation: a worker killed mid-shard (OOM, signal,
        ``os._exit``) breaks the pool, and each of the futures it held
        raises ``BrokenProcessPool``.  Futures are collected one by one,
        so completed shards keep their results; the broken pool is
        discarded (the next run forks a fresh one) and the lost shards
        are re-run serially in-parent (deterministic trials make the
        re-run bitwise identical), the event recorded in
        :attr:`BatchResult.fallback_reasons` for every trial of a lost
        shard.  A pool that broke while idle (a worker died between
        runs) is replaced before anything is submitted, so that run
        loses nothing.  Exceptions *raised by a trial itself* still
        propagate unchanged -- only executor-level worker death is
        retried.
        """
        shards = self.shards or os.cpu_count() or 1
        shards = max(1, min(shards, len(trials)))
        if shards == 1:
            return (*self._run_single(trials, on_shard), {})
        bounds = _shard_bounds(len(trials), shards)
        chunks = [
            (bounds[i], trials[bounds[i]: bounds[i + 1]])
            for i in range(shards)
        ]
        _emit(
            on_shard,
            {
                "event": "plan",
                "shards": len(chunks),
                "sizes": [len(chunk) for _, chunk in chunks],
            },
        )
        shard_outputs: List[Optional[Tuple]] = [None] * len(chunks)
        lost: Dict[int, str] = {}
        pool = _worker_pool()
        try:
            futures = self._submit(pool, chunks)
        except BrokenProcessPool:
            pool = _worker_pool(stale=pool)
            futures = self._submit(pool, chunks)
        for future in as_completed(futures):
            j = futures[future]
            offset, chunk = chunks[j]
            event = {
                "event": "shard",
                "shard": j,
                "offset": offset,
                "trials": len(chunk),
            }
            try:
                shard_outputs[j] = future.result()
            except BrokenProcessPool as exc:
                # One dead worker breaks the whole pool, so every
                # still-pending shard lands here too; each is
                # re-run below.  Completed shards keep their
                # results -- nothing is discarded.
                lost[j] = f"{type(exc).__name__}: {exc}" if str(exc) else (
                    type(exc).__name__
                )
                _emit(on_shard, {**event, "status": "lost"})
            else:
                _emit(on_shard, {**event, "status": "done"})
        if lost:
            _discard_pool(pool)
        for j in sorted(lost):
            offset, chunk = chunks[j]
            shard_outputs[j] = _run_shard(chunk, *self._shard_args())
            _emit(
                on_shard,
                {
                    "event": "shard",
                    "shard": j,
                    "offset": offset,
                    "trials": len(chunk),
                    "status": "retried",
                },
            )
        results: List[FastResult] = []
        stack_groups: List[List[int]] = []
        compaction: List[Dict] = []
        reasons: Dict[int, str] = {}
        for j, ((offset, chunk), (
            shard_results, shard_groups, shard_compaction
        )) in enumerate(zip(chunks, shard_outputs)):
            results.extend(shard_results)
            stack_groups.extend(
                [offset + i for i in group] for group in shard_groups
            )
            compaction.extend(shard_compaction)
            if j in lost:
                note = (
                    "process shard re-run in-parent after a worker death "
                    f"({lost[j]})"
                )
                for i in range(len(chunk)):
                    reasons[offset + i] = note
        return results, stack_groups, compaction, reasons

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
