"""Trial-stacked ``(S, W)`` kernel for the fast simulator.

:class:`~repro.core.fast.FastSimulation` walks the pulse/layer recurrence
(Lemma B.1) one layer step at a time.  Because the recurrence has no
cross-trial coupling -- trial ``s``'s pulse ``k`` of layer ``l`` depends
only on trial ``s``'s pulse ``k`` of layer ``l - 1`` -- ``S`` compatible
trials can advance through it in lock-step, with every per-layer array
op over the ``(S, W)`` plane.  That is what :class:`TrialStack` does:
reception times, do-until exit test, correction, and pulse time are
computed for the whole plane at once, so the Python-loop overhead per
layer step is paid once per *batch* instead of once per *trial*.  The
stack is the only driver of the recurrence:
:meth:`FastSimulation.run <repro.core.fast.FastSimulation.run>` is a
stack of one.

Heterogeneous geometries (padded stacking)
------------------------------------------
Trials do **not** need the same node count, adjacency structure, layer
count, timing parameters, or correction strength to stack.  The stack
pads every per-trial plane to ``(S, W_max)`` (``W_max`` = widest trial)
and marks cells past a trial's width or depth *inert*: their state is
NaN, their gather lanes are masked invalid, their eligibility is
statically False, and the batched fallback skips them -- so an inert cell
can never influence a real one, and NaN (the simulator's own marker for
"never pulsed") keeps them out of every downstream reducer.  Per-trial
neighbor gathers run through padded ``(S, W_max, max_deg)`` index/valid
tensors built from each base graph's cached
:meth:`~repro.topology.base_graph.BaseGraph.neighbor_index_arrays`;
numeric parameters (``kappa``/``vartheta``/``Lambda``/``d``) and the
policy's ``jump_slack`` broadcast as per-trial ``(S, 1)`` columns.  The
layer-0 schedules of the whole stack are gathered as one
``(S, P, W_max)`` block by :func:`~repro.core.layer0.stacked_pulse_times`
and written plane by plane, instead of ``S`` per-trial ``(P, W)``
gathers and row loops.

Depth-aware compaction (dropping finished rows)
-----------------------------------------------
Depth padding makes mixed-depth stacks *correct*, but without further
care a shallow trial keeps riding the layer loop as a dead NaN row until
the deepest trial finishes -- on a strongly depth-skewed batch most of
the ``(S, W_max)`` plane is then inert ballast.  The stack instead
*drops* a trial's row from the working plane as soon as the trial has
nothing left to compute:

* **depth exhausted** -- ``layer >= num_layers_s``: the trial's window
  simply has no such layer, or
* **gone dead** -- no node of the trial's previous layer produced a
  pulse for the current iteration (possible only with faults, e.g. a
  fully crashed layer), so no message will ever reach this or any deeper
  layer of this pulse; a full-plane step would replay every such cell
  through the batched fallback just to record "no pulse".

The surviving trials are re-gathered through an ``active_rows`` index
into compact ``(S_active, W_max)`` state/parameter/neighbor arrays
(cached per distinct row set -- the depth-driven sets are nested, so
there are at most as many as distinct depths), the kernel runs on the
compact plane, and the results scatter back to the original trial slots
-- bit-identical to a full-plane step, which in turn is bit-identical to
per-trial runs.  A depth-skewed batch therefore pays for the layer
steps its trials actually run (``sum_s L_s``) instead of ``S * L_max``.
:attr:`TrialStack.compaction_stats` records the padded vs executed
row-step counts after each :meth:`TrialStack.run`.

Width-aware compaction (dropping unused lanes)
----------------------------------------------
The width axis has the mirror problem: one wide trial pads every other
trial's plane to ``W_max``, and the padding keeps riding the kernel even
after the wide trial drops out of the layer loop.  Each step therefore
also gathers only the ``active_lanes``
-- the union, over the *active rows*, of lanes some trial still needs.
A lane is needed by trial ``s`` when it is inside the trial's real width
and, under a chaos campaign, the vertex is present in at least one epoch
of the remaining horizon: a vertex absent from the current epoch through
the end of the run can never pulse, receive, or send again, so its lane
is freed at the epoch boundary (epoch re-gathers re-derive the free-lane
set).  Neighbor tables are re-indexed into the compact column space
(``lane_pos``), the kernel runs on the ``(S_active, C)`` plane, and
results scatter back through ``rows x lanes`` -- dropped lanes keep
their initial padding, which is exactly what the uncompacted path writes
there (padding is never eligible, and a horizon-absent vertex's fallback
replay records NaN/"none", the padding values, and no fault sends).

One layer step
--------------
The full ``(S, W_max)`` plane is the identity case of compaction: rows
and lanes index with ``slice(None)``.  :func:`_select_cells` picks the
rows and lanes of each step, and :meth:`TrialStack._run_layer_stacked`
runs the kernel on whatever plane they select, so the dense/CSR kernel
call lives in one place.  Tests and benchmarks replace
:func:`_select_cells` with the identity to measure or pin the
uncompacted plane; it is a test seam, not an option.

CSR neighbor backend (sparse/skewed graphs)
-------------------------------------------
Uniform-adjacency stacks may run the neighbor reduction over the base
graph's CSR arrays (:meth:`~repro.topology.base_graph.BaseGraph.neighbor_csr`)
instead of the padded ``(W, max_deg)`` tensors: per-step cost becomes
``O(S * nnz)`` rather than ``O(S * W * max_deg)``, which is what lets a
hub-skewed or million-node sparse layer through the fast path -- see
:func:`repro.core.fast._layer_step_kernel_csr`.  The density heuristic
(:func:`repro.core.fast._prefer_csr`) picks the representation of a
uniform stack; mixed-adjacency stacks always run the dense padded path.
``compaction_stats["neighbor_backend"]`` records the choice.

Stacking requirements (checked by :func:`stack_compatibility`)
--------------------------------------------------------------
All stacked simulations must share

* the algorithm semantics -- either all ``"full"`` (Algorithm 3) or all
  ``"simplified"`` (Algorithm 1); the two differ only in the eligibility
  mask of the shared :func:`~repro.core.fast._layer_step_kernel`, so
  both stack -- and
* the *structural* correction-policy switches ``discretize`` and
  ``stick_to_median``, which select Python-level branches of the kernel
  (``jump_slack``, a numeric knob, may differ per trial).

Everything else -- geometry, timing parameters, delay models, clock
rates, layer-0 schedules, fault plans -- may differ per trial; those
inputs become the padded leading-axis ``(S, ...)`` arrays the kernel
consumes.

Exactness
---------
Every stack -- one trial or many -- evaluates *the same* NumPy
expressions of the shape-generic
:func:`~repro.core.fast._layer_step_kernel` elementwise, so a trial's
eligible cells produce bit-identical floats whatever stack it runs in
(per-trial parameter columns broadcast elementwise and change no
operation).  The exact eligibility test is applied cell by cell:
fault-adjacent, via-``H_max``, and missing-message cells drop out of the
array path and are resolved by one stack-wide batched fallback pass per
layer step (:meth:`TrialStack._run_fallback`), which mirrors the
per-cell scalar rule (:func:`~repro.core.fast._scalar_replay`) operation
for operation.  The pass gathers every
rejected cell's arrivals from arrays: send times from the stacked
``times`` plane or, for faulty predecessors, from a per-layer overlay of
their recorded sends, plus the layer's delay and rate planes and the
cells' own parameter values.  Every operation of the replay is per cell,
so a cell's outcome does not depend on which stack it ran in.  The test
suite asserts equality against both per-trial runs (stacks of one) and
the scalar reference, for both algorithms, over randomized
mixed-geometry stacks.  The reference is a seam, not a second driver:
patching :func:`_kernel_cells` to :func:`numpy.zeros_like` sends every
cell through the fallback, and patching :func:`_fallback_replay` to
:func:`~repro.core.fast._scalar_replay` as well resolves each of them
with the per-cell scalar rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fast import (
    BRANCH_CODES,
    FastResult,
    FastSimulation,
    _VectorSweep,
    _fallback_replay,
    _layer_step_kernel,
    _layer_step_kernel_csr,
    _neighbor_backend,
)
from repro.core.layer0 import stacked_pulse_row, stacked_pulse_times

__all__ = ["TrialStack", "stack_compatibility"]

#: Rows hint for layer steps the compacted loop skipped outright: the
#: streamed statistics still need the update (the inter-layer fold
#: retires its previous-pulse plane), just with no active trial.
_NO_ROWS = np.zeros(0, dtype=np.int64)

#: Index of a whole axis: the full plane is the identity case of
#: compaction (see :func:`_select_cells`).
_ALL = slice(None)


class _StackBlock:
    """The shared padded matrices one :meth:`TrialStack.run` writes.

    Handed to every returned :class:`FastResult` (``stack_block`` /
    ``stack_row``) so :class:`~repro.experiments.batch.BatchResult` can
    adopt the block directly instead of re-stacking ``S`` window copies
    -- the single-stack no-copy construction.  All arrays are frozen
    (``writeable=False``) before the results are returned, so neither a
    per-trial result nor a batch adopting the block can corrupt the
    other's view of the shared memory.
    """

    __slots__ = ("times", "corrections", "effective_corrections", "faulty")

    def __init__(
        self,
        times: np.ndarray,
        corrections: np.ndarray,
        effective_corrections: np.ndarray,
        faulty: np.ndarray,
    ) -> None:
        self.times = times
        self.corrections = corrections
        self.effective_corrections = effective_corrections
        self.faulty = faulty


def stack_compatibility(sims: Sequence[FastSimulation]) -> Optional[str]:
    """Why ``sims`` cannot run stacked, or None when they can.

    The returned string names the first violated requirement; callers that
    want an exception can raise on it (``TrialStack`` does).  Geometry,
    parameters, delay models, clock rates, layer-0 schedules, fault plans,
    and the numeric ``jump_slack`` policy knob never disqualify a stack --
    mixed-geometry trials run through the padded kernel (see the module
    docstring).
    """
    if not sims:
        return "need at least one simulation"
    first = sims[0]
    structure = (first.policy.discretize, first.policy.stick_to_median)
    for i, sim in enumerate(sims[1:], start=1):
        if sim.algorithm != first.algorithm:
            return (
                f"trial {i}: algorithm {sim.algorithm!r} differs from "
                f"trial 0's {first.algorithm!r}"
            )
        if (sim.policy.discretize, sim.policy.stick_to_median) != structure:
            return (
                f"trial {i}: correction-policy structure "
                "(discretize/stick_to_median) differs from trial 0"
            )
    return None


def _select_cells(
    layer: int,
    depths: np.ndarray,
    dead: Optional[np.ndarray],
    prev_protocol: np.ndarray,
    lane_needed: Optional[np.ndarray],
):
    """Rows and lanes of the working plane for one layer step.

    Returns ``(rows, lanes)`` -- each :data:`_ALL` (the whole axis) or an
    index array; ``lanes`` is an array only together with ``rows`` -- or
    ``None`` when no cell of the step needs computing.  A row survives
    while its trial is deeper than ``layer`` and has not gone dead this
    iteration; ``dead`` (None on fault-free stacks, where no trial can
    go dead) is updated in place from ``prev_protocol``, the
    ``(S, W_max)`` protocol plane of layer ``layer - 1``.  A lane
    survives while some surviving row still needs it (``lane_needed``;
    None on uniform stacks, which carry no width padding).  See the
    module docstring for why dropping the rest is exact.
    """
    mask = depths > layer
    if dead is not None:
        # A trial goes dead for the rest of this iteration when *no*
        # node of its previous layer produced a pulse (protocol row
        # all-NaN): correct nodes sent nothing and faulty nodes recorded
        # no sends, so no message can reach this or any deeper layer.
        candidates = np.flatnonzero(mask & ~dead)
        if candidates.size:
            silent = np.isnan(prev_protocol[candidates]).all(axis=1)
            if silent.any():
                dead[candidates[silent]] = True
        mask &= ~dead
    rows = _ALL
    if not mask.all():
        if not mask.any():
            return None
        rows = np.flatnonzero(mask)
    if lane_needed is None:
        return rows, _ALL
    used = lane_needed[rows].any(axis=0)
    if used.all():
        return rows, _ALL
    if not used.any():
        return None
    if isinstance(rows, slice):
        rows = np.arange(mask.size, dtype=np.int64)
    return rows, np.flatnonzero(used)


def _kernel_cells(eligible: np.ndarray) -> np.ndarray:
    """The cells of a layer step that keep the kernel's outputs.

    These are the ``eligible`` cells themselves; every other active cell
    goes through the stack-wide fallback.  A test seam like
    :func:`_select_cells`, not an option: patching it to return an
    all-False mask replays every cell through the fallback -- the
    batched replay, or the per-cell scalar reference when
    :func:`_fallback_replay` is patched to
    :func:`~repro.core.fast._scalar_replay` too.
    """
    return eligible


class _StackedParams:
    """Per-trial ``(S, 1)`` numeric parameter columns for the kernel.

    Stands in for a shared :class:`~repro.params.Parameters` when the
    stacked trials' parameters differ: every kernel use of ``kappa``/
    ``vartheta``/``Lambda``/``d`` is elementwise, so broadcasting a
    column of per-trial values computes bit-identical floats to a scalar
    call with each trial's own value.
    """

    __slots__ = ("kappa", "vartheta", "Lambda", "d")

    def __init__(self, sims: Sequence[FastSimulation]) -> None:
        for name in self.__slots__:
            column = np.array([getattr(sim.params, name) for sim in sims])
            setattr(self, name, column[:, None])

    def take(self, rows: np.ndarray, flat: bool = False) -> "_StackedParams":
        """The columns of the compacted row subset (same broadcast shape).

        With ``flat``, one value per entry of ``rows`` instead: the
        per-cell vectors of the stack-wide fallback.
        """
        taken = object.__new__(type(self))
        for name in self.__slots__:
            column = getattr(self, name)
            setattr(taken, name, column[rows, 0] if flat else column[rows])
        return taken


class _StackedPolicy:
    """Per-trial policy for the kernel: structural bools + numeric column."""

    __slots__ = ("discretize", "stick_to_median", "jump_slack")

    def __init__(self, sims: Sequence[FastSimulation]) -> None:
        self.discretize = sims[0].policy.discretize
        self.stick_to_median = sims[0].policy.stick_to_median
        self.jump_slack = np.array(
            [sim.policy.jump_slack for sim in sims]
        )[:, None]

    def take(self, rows: np.ndarray, flat: bool = False) -> "_StackedPolicy":
        """The policy restricted to the compacted row subset (or, with
        ``flat``, one ``jump_slack`` per entry of ``rows``)."""
        taken = object.__new__(type(self))
        taken.discretize = self.discretize
        taken.stick_to_median = self.stick_to_median
        taken.jump_slack = (
            self.jump_slack[rows, 0] if flat else self.jump_slack[rows]
        )
        return taken


class TrialStack:
    """Advance ``S`` compatible simulations through the recurrence together.

    Parameters
    ----------
    sims:
        The per-trial :class:`FastSimulation` objects.  They must satisfy
        :func:`stack_compatibility` (same algorithm, same
        structural policy switches); a :class:`ValueError` names the first
        violation otherwise.  Geometries may differ -- narrower/shallower
        trials are padded with inert cells.

    Notes
    -----
    :meth:`run` returns ordinary per-trial :class:`FastResult` objects
    whose matrices are views into one shared ``(S, K, L_max, W_max)``
    block (each trial seeing its own ``(K, L_s, W_s)`` window), so
    downstream code (skew reducers, ``fault_sends`` drill-in, the batched
    fallback itself) sees exactly the per-trial layout while the kernel
    reads and writes whole ``(S, W_max)`` planes without gathering.  The
    block is attached to each result (``stack_block``/``stack_row``) and
    frozen once the run completes: stacked results are immutable
    snapshots, so no caller can corrupt the memory every trial of the
    stack shares (``BatchResult`` adopts the block without copying).

    Every layer step runs on the rows and lanes that still need it (see
    the module docstring).  After :meth:`run`, :attr:`compaction_stats`
    holds the padded vs executed row- and lane-step accounting of the
    last run, the neighbor representation the density heuristic chose,
    and the batched-fallback counts.

    Example
    -------
    >>> from repro.core.fast import FastSimulation
    >>> from repro.core.fast_batch import TrialStack
    >>> from repro.params import Parameters
    >>> from repro.topology.base_graph import cycle_graph
    >>> from repro.topology.layered import LayeredGraph
    >>> params = Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0)
    >>> sims = [
    ...     FastSimulation(LayeredGraph(cycle_graph(4 + i), 3), params)
    ...     for i in range(2)
    ... ]
    >>> results = TrialStack(sims).run(num_pulses=2)
    >>> [r.times.shape for r in results]
    [(2, 3, 4), (2, 3, 5)]
    """

    def __init__(self, sims: Sequence[FastSimulation]) -> None:
        reason = stack_compatibility(sims)
        if reason is not None:
            raise ValueError(f"trials cannot be stacked: {reason}")
        self.sims: List[FastSimulation] = list(sims)
        #: Row/lane-step accounting of the last :meth:`run`; see the
        #: module docstring.  ``None`` until the first run completes.
        self.compaction_stats: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Stacked per-layer inputs
    # ------------------------------------------------------------------
    def _delay_stack(
        self,
        sweeps: Sequence[_VectorSweep],
        cache: Dict[object, Tuple[np.ndarray, np.ndarray]],
        layer: int,
        k: int,
        rows=_ALL,
        lanes=_ALL,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Own ``(S, W)`` and neighbor ``(S, W, max_deg)`` delay arrays.

        Each sweep's per-trial arrays come from (and fill) its simulation's
        own delay cache; the stacked copies are cached here per layer when
        every model is pulse-invariant, else per ``(layer, k)``.  On a
        compacted step, ``rows`` selects the active trials and only their
        arrays are gathered (the cache key then carries the row set --
        depth-driven sets are nested, so at most one entry per distinct
        depth survives), and ``lanes`` slices the active columns out of
        the row-compacted arrays (cached under the extended key).  On a
        CSR stack the neighbor array is the flat ``(S, nnz)`` segment
        vector instead (lane compaction never coexists with CSR: CSR
        requires a uniform stack, lanes a padded one).  Trials without
        this layer (padded depth) contribute inert NaN/zero rows and are
        never queried, so delay models only ever see edges that exist in
        their own graph.
        """
        key: object = layer if self._all_pulse_invariant else (layer, k)
        if not isinstance(rows, slice):
            key = (key, rows.tobytes())
        if not isinstance(lanes, slice):
            full_own, full_nb = self._delay_stack(sweeps, cache, layer, k, rows)
            key = (key, "lanes", lanes.tobytes())
            cached = cache.get(key)
            if cached is None:
                cached = (full_own[:, lanes], full_nb[:, lanes, :])
                cache[key] = cached
            return cached
        cached = cache.get(key)
        if cached is None:
            if self._uniform:
                selected = (
                    sweeps
                    if isinstance(rows, slice)
                    else [sweeps[s] for s in rows]
                )
                per_trial = [sw.delay_arrays(layer, k) for sw in selected]
                # np.array stacks equal-shape rows exactly like np.stack,
                # at a fraction of its per-call overhead (paid per layer).
                cached = (
                    np.array([own for own, _ in per_trial]),
                    np.array([nb for _, nb in per_trial]),
                )
            else:
                indices = np.arange(len(sweeps))[rows]
                own = np.full((len(indices), self._width), np.nan)
                nb = np.zeros((len(indices), self._width, self._max_deg))
                for i, s in enumerate(indices):
                    if layer >= self._depths[s]:
                        continue
                    own_s, nb_s = sweeps[s].delay_arrays(layer, k)
                    own[i, : own_s.shape[0]] = own_s
                    nb[i, : nb_s.shape[0], : nb_s.shape[1]] = nb_s
                cached = (own, nb)
            cache[key] = cached
        return cached

    def _rate_stack(
        self,
        sweeps: Sequence[_VectorSweep],
        cache: Dict[object, np.ndarray],
        layer: int,
        k: int,
        rows=_ALL,
        lanes=_ALL,
    ) -> np.ndarray:
        """Clock rates of the (active) trials' nodes during pulse ``k``.

        Inert cells get rate 1 (never read through an eligible lane, but
        a finite value keeps the whole-plane arithmetic NaN-clean).
        ``lanes`` slices the active columns out of the row-compacted
        array, mirroring :meth:`_delay_stack`.
        """
        if not isinstance(lanes, slice):
            full = self._rate_stack(sweeps, cache, layer, k, rows)
            key = (layer, rows.tobytes(), "lanes", lanes.tobytes())
            if self._rates_static:
                cached = cache.get(key)
                if cached is not None:
                    return cached
            sliced = full[:, lanes]
            if self._rates_static:
                cache[key] = sliced
            return sliced
        key: object = (
            layer if isinstance(rows, slice) else (layer, rows.tobytes())
        )
        if self._rates_static:
            cached = cache.get(key)
            if cached is not None:
                return cached
        # Callable rate providers may depend on the pulse; query per step
        # exactly as the per-trial kernel does.
        if self._uniform:
            selected = (
                sweeps
                if isinstance(rows, slice)
                else [sweeps[s] for s in rows]
            )
            stacked = np.array([sw.rate_array(layer, k) for sw in selected])
        else:
            indices = np.arange(len(sweeps))[rows]
            stacked = np.ones((len(indices), self._width))
            for i, s in enumerate(indices):
                if layer >= self._depths[s]:
                    continue
                row = sweeps[s].rate_array(layer, k)
                stacked[i, : row.shape[0]] = row
        if self._rates_static:
            cache[key] = stacked
        return stacked

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        num_pulses: int,
        store_times: bool = True,
    ) -> List[FastResult]:
        """Simulate ``num_pulses`` pulses for every trial; per-trial results.

        With ``store_times=False`` the run folds its statistics online
        into a :class:`~repro.analysis.streaming.StreamedStats` as the
        kernel writes each ``(S, W)`` plane, and the shared matrices
        shrink to a rolling *one-pulse* window -- memory O(S, L, W)
        instead of O(S, K, L, W), and the layer-0 schedule is gathered one
        ``(S, W)`` row per pulse instead of the whole ``(S, K, W)``
        block -- and the returned results carry only the streamed
        accumulators (``result.streamed`` / ``streamed_row``; the
        matrices are ``None``).  Streamed statistics are bitwise
        identical to the materialized reducers (see
        :mod:`repro.analysis.streaming`).
        """
        sims = self.sims
        num_trials = len(sims)
        widths = [sim.graph.width for sim in sims]
        depths = [sim.graph.num_layers for sim in sims]
        width = max(widths)
        num_layers = max(depths)
        self._width = width
        self._depths = depths
        # Chaos campaigns compile to per-epoch adjacency + fault state up
        # front; trials under a campaign swap their rows of the stacked
        # tensors at epoch boundaries (see _enter_stack_epochs), which
        # needs the per-trial 3-D gather tables of the padded path.
        schedules = [
            None
            if sim.campaign is None
            else sim.campaign.compile(num_pulses, base_plan=sim.fault_plan)
            for sim in sims
        ]
        has_campaign = any(s is not None for s in schedules)
        adjacency0 = sims[0].graph.base.adjacency
        self._uniform = not has_campaign and all(
            depth == num_layers and sim.graph.base.adjacency == adjacency0
            for depth, sim in zip(depths, sims)
        )

        stream = None
        if not store_times:
            from repro.analysis.streaming import StreamLayout, StreamedStats

            stream = StreamedStats(StreamLayout.from_sims(sims, num_pulses))

        results = [sim._begin_run(num_pulses) for sim in sims]
        if store_times:
            # One (S, P, W_max) layer-0 gather for the whole stack.
            self._layer0_block = stacked_pulse_times(
                [sim.layer0 for sim in sims],
                [sim.graph.base for sim in sims],
                num_pulses,
            )
            self._l0_row_buffer = None
        else:
            # Streaming: no (S, P, W_max) block -- one reusable (S, W_max)
            # row refilled per pulse by stacked_pulse_row (bit-identical
            # entries; see layer0.py).
            self._layer0_block = None
            self._l0_row_buffer = np.full((num_trials, width), np.nan)
            self._l0_schedules = [sim.layer0 for sim in sims]
            self._l0_bases = [sim.graph.base for sim in sims]
        store_pulses = num_pulses if store_times else 1
        shape = (num_trials, store_pulses, num_layers, width)

        # One shared block per matrix; each FastResult holds the trial-s
        # window view, so batched fallbacks and analysis code read/write
        # through it.  Cells outside a trial's window stay NaN (padding
        # never turns eligible; the whole-plane fast path only runs on
        # uniform stacks).
        times = np.full(shape, np.nan)
        protocol_times = np.full(shape, np.nan)
        corrections = np.full(shape, np.nan)
        effective = np.full(shape, np.nan)
        branches = np.full(shape, BRANCH_CODES["none"], dtype=np.int8)
        for s, result in enumerate(results):
            result.times = times[s, :, : depths[s], : widths[s]]
            result.protocol_times = protocol_times[s, :, : depths[s], : widths[s]]
            result.corrections = corrections[s, :, : depths[s], : widths[s]]
            result.effective_corrections = effective[s, :, : depths[s], : widths[s]]
            result.branches = branches[s, :, : depths[s], : widths[s]]

        # One neighbor representation for the whole stack.  CSR needs one
        # shared adjacency (the segment structure is per-graph), so only
        # uniform stacks consult the density heuristic; padded stacks run
        # the dense tensors.
        backend = (
            _neighbor_backend(sims[0].graph.base) if self._uniform else "dense"
        )
        sweeps = [_VectorSweep(sim, backend=backend) for sim in sims]
        # Epoch entries replace a trial's sweep in this list in place.
        self._sweeps = sweeps
        self._all_pulse_invariant = all(
            getattr(sim.delay_model, "pulse_invariant", False) for sim in sims
        )
        self._rates_static = all(not callable(sim._rates) for sim in sims)
        delay_cache: Dict[object, Tuple[np.ndarray, np.ndarray]] = {}
        rate_cache: Dict[int, np.ndarray] = {}

        # Padded (S, ...) fault/eligibility structure.  ``active`` marks the
        # real (non-padding) cells; None on uniform stacks (all real).
        if self._uniform:
            nb_idx = sweeps[0].nb_idx
            nb_valid = sweeps[0].nb_valid
            if backend == "csr":
                sweep0 = sweeps[0]
                self._csr = (
                    sweep0.indptr,
                    sweep0.indices,
                    sweep0.owner,
                    sweep0.has_neighbors,
                )
                self._max_deg = sweep0.max_deg
            else:
                self._csr = None
                self._max_deg = nb_idx.shape[1]
            static_eligible = np.stack([sweep.static_eligible for sweep in sweeps])
            faulty = np.stack([sweep.faulty for sweep in sweeps])
            active = None
        else:
            self._csr = None
            self._max_deg = max(sweep.nb_idx.shape[1] for sweep in sweeps)
            nb_idx = np.zeros((num_trials, width, self._max_deg), dtype=np.int64)
            nb_valid = np.zeros((num_trials, width, self._max_deg), dtype=bool)
            static_eligible = np.zeros(
                (num_trials, num_layers - 1, width), dtype=bool
            )
            faulty = np.zeros((num_trials, num_layers, width), dtype=bool)
            for s, sweep in enumerate(sweeps):
                w, cols = sweep.nb_idx.shape
                nb_idx[s, :w, :cols] = sweep.nb_idx
                nb_valid[s, :w, :cols] = sweep.nb_valid
                static_eligible[s, : depths[s] - 1, :w] = sweep.static_eligible
                faulty[s, : depths[s], :w] = sweep.faulty
            layer_index = np.arange(num_layers)
            active = (
                (layer_index[None, :, None] < np.array(depths)[:, None, None])
                & (np.arange(width)[None, None, :] < np.array(widths)[:, None, None])
            )
        layer_has_fault = faulty.any(axis=(0, 2)).tolist()

        # Per-trial parameter/policy columns when trials disagree; the
        # shared objects otherwise (scalar broadcasting, old fast path).
        params0, policy0 = sims[0].params, sims[0].policy
        self._params = (
            params0
            if all(sim.params == params0 for sim in sims)
            else _StackedParams(sims)
        )
        self._policy = (
            policy0
            if all(sim.policy == policy0 for sim in sims)
            else _StackedPolicy(sims)
        )

        # Stacked layer-0 plane writes (see _run_layer0_stacked);
        # self._layer0_block / self._l0_row_buffer were set above.
        self._l0_faulty = faulty[:, 0, :]
        self._l0_fault_trials = [
            s for s in range(num_trials) if bool(self._l0_faulty[s].any())
        ]
        width_mask = (
            np.ones((num_trials, width), dtype=bool)
            if self._uniform
            else np.arange(width)[None, :] < np.array(widths)[:, None]
        )
        self._l0_branch_row = np.where(
            width_mask, BRANCH_CODES["layer0"], BRANCH_CODES["none"]
        ).astype(np.int8)

        # Width-aware compaction bookkeeping: lane_needed[s, v] is True
        # while trial s can still use lane v.  Statically that is the
        # trial's width mask; campaign epoch entries clear lanes whose
        # vertex is absent for the whole remaining horizon (see
        # _enter_stack_epochs).  Uniform stacks have no width padding, so
        # the lane pass is skipped there outright.
        self._widths = widths
        self._lane_needed = width_mask.copy()
        lane_needed = None if active is None else self._lane_needed

        # Depth-aware compaction bookkeeping (see the module docstring):
        # at layer ``l`` only trials with ``depth > l`` that have not gone
        # dead this iteration keep a row in the working plane.  ``dead``
        # can only ever trigger with faults -- a fault-free trial's layers
        # always pulse -- so the all-NaN probe is skipped entirely on
        # fault-free stacks.
        depths_arr = np.array(depths)
        any_fault = bool(faulty.any())
        dead = np.zeros(num_trials, dtype=bool)
        self._row_cache: Dict[Tuple, Dict[str, object]] = {}
        padded_row_steps = num_pulses * max(num_layers - 1, 0) * num_trials
        active_row_steps = 0
        # Lane-step (cell) accounting: padded cost is every row step times
        # the full padded width; the active count sums rows x lanes over
        # the steps actually executed.
        padded_lane_steps = padded_row_steps * width
        active_lane_steps = 0

        # Campaign bookkeeping: per-trial epoch cursor and per-trial sweep
        # cache keyed by epoch state (a topology that returns to an earlier
        # state reuses its gather tensors).  Seed graph/plan are restored
        # after the run even on error.
        epoch_cursor = [-1] * num_trials
        sweep_caches: List[Dict[Tuple, _VectorSweep]] = [{} for _ in sims]
        seed_states = [(sim.graph, sim.fault_plan) for sim in sims]

        # Fault-send overlays of the current pulse, keyed by the layer that
        # receives the sends (see _record_fault_sends), and the count of
        # stack-wide fallback passes.
        self._sends: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._fallback_passes = 0

        matrices = (times, protocol_times, corrections, effective, branches)
        try:
            for k in range(num_pulses):
                if has_campaign and self._enter_stack_epochs(
                    k, schedules, epoch_cursor, sweep_caches, sweeps,
                    nb_idx, nb_valid, static_eligible, faulty,
                ):
                    # Rows of the stacked tensors changed in place: refresh
                    # every structure derived from them.  The stack-level
                    # delay cache and the compacted row gathers hold stale
                    # copies; the rate caches survive (rates are keyed by
                    # node id and the vertex set never changes).
                    layer_has_fault = faulty.any(axis=(0, 2)).tolist()
                    any_fault = bool(faulty.any())
                    dead[:] = False
                    delay_cache.clear()
                    self._row_cache = {}
                    self._l0_fault_trials = [
                        s
                        for s in range(num_trials)
                        if bool(self._l0_faulty[s].any())
                    ]
                rk = k if store_times else 0
                if not store_times and k > 0:
                    # Recycle the rolling one-pulse window for this iteration.
                    times[:, 0] = np.nan
                    protocol_times[:, 0] = np.nan
                    corrections[:, 0] = np.nan
                    effective[:, 0] = np.nan
                    branches[:, 0] = BRANCH_CODES["none"]
                self._sends.clear()
                self._run_layer0_stacked(
                    results, times, protocol_times, branches, k, rk
                )
                if stream is not None:
                    stream.update(
                        k, 0, times[:, rk, 0, :], corrections[:, rk, 0, :]
                    )
                if any_fault:
                    dead[:] = False
                for layer in range(1, num_layers):
                    cells = _select_cells(
                        layer,
                        depths_arr,
                        dead if any_fault else None,
                        protocol_times[:, rk, layer - 1, :],
                        lane_needed,
                    )
                    if cells is None:
                        hint = _NO_ROWS
                    else:
                        rows, lanes = cells
                        hint = None if isinstance(rows, slice) else rows
                        row_count = (
                            num_trials if isinstance(rows, slice) else rows.size
                        )
                        active_row_steps += row_count
                        active_lane_steps += row_count * (
                            width if isinstance(lanes, slice) else lanes.size
                        )
                        self._run_layer_stacked(
                            results,
                            matrices,
                            self._row_structs(
                                rows,
                                lanes,
                                nb_idx,
                                nb_valid,
                                static_eligible,
                                faulty,
                                active,
                            ),
                            self._delay_stack(
                                sweeps, delay_cache, layer, k, rows, lanes
                            ),
                            self._rate_stack(
                                sweeps, rate_cache, layer, k, rows, lanes
                            ),
                            layer_has_fault[layer],
                            k,
                            layer,
                            rk,
                        )
                    if stream is not None:
                        # Skipped steps still update with an empty rows hint so
                        # the inter-layer fold retires its buffer plane.
                        stream.update(
                            k,
                            layer,
                            times[:, rk, layer, :],
                            corrections[:, rk, layer, :],
                            hint,
                        )
        finally:
            if has_campaign:
                for sim, state in zip(sims, seed_states):
                    sim.graph, sim.fault_plan = state

        for s, schedule in enumerate(schedules):
            if schedule is not None:
                results[s].campaign = sims[s].campaign
                results[s].churn_stats = schedule.summary()

        self.compaction_stats = {
            "trials": num_trials,
            "num_layers": num_layers,
            "min_depth": int(min(depths)),
            "max_depth": int(max(depths)),
            "padded_row_steps": padded_row_steps,
            "active_row_steps": active_row_steps,
            "dropped_fraction": (
                1.0 - active_row_steps / padded_row_steps
                if padded_row_steps
                else 0.0
            ),
            "min_width": int(min(widths)),
            "max_width": int(max(widths)),
            "padded_lane_steps": padded_lane_steps,
            "active_lane_steps": active_lane_steps,
            "lane_dropped_fraction": (
                1.0 - active_lane_steps / padded_lane_steps
                if padded_lane_steps
                else 0.0
            ),
            "neighbor_backend": backend,
            # Batched-fallback accounting: total kernel-rejected cells
            # resolved by the replay, their per-trial (pulse, layer)
            # batches, and the stack-wide resolver passes -- one per
            # (pulse, layer) step with any such cell, so never more than
            # the batches.  Zero on fault-free stacks.
            "fallback_cells": sum(r.fallback_cells for r in results),
            "fallback_batches": sum(r.fallback_batches for r in results),
            "fallback_passes": self._fallback_passes,
        }
        self._sends = {}

        if stream is not None:
            stream.finalize()
            for s, result in enumerate(results):
                result.streamed = stream
                result.streamed_row = s
        if not store_times:
            # The rolling window holds only the last pulse -- meaningless
            # as a result matrix.  Drop every matrix reference so the
            # memory goes with it; the statistics live in ``streamed``.
            for result in results:
                result.times = None
                result.protocol_times = None
                result.corrections = None
                result.effective_corrections = None
                result.branches = None
            self._l0_row_buffer = None
            return results

        # Freeze the shared block and hand it to every result: stacked
        # results are immutable snapshots (a write through any window
        # would silently corrupt its siblings and any adopting
        # BatchResult), and the attached block is what lets a single-stack
        # BatchResult skip re-materializing (S, K, L_max, W_max) copies.
        block = _StackBlock(times, corrections, effective, faulty)
        for array in (times, protocol_times, corrections, effective,
                      branches, faulty):
            array.flags.writeable = False
        for s, result in enumerate(results):
            for attr in ("times", "protocol_times", "corrections",
                         "effective_corrections", "branches"):
                getattr(result, attr).flags.writeable = False
            result.stack_block = block
            result.stack_row = s
        return results

    def _enter_stack_epochs(
        self,
        k: int,
        schedules: Sequence[Optional[object]],
        epoch_cursor: List[int],
        sweep_caches: List[Dict[Tuple, _VectorSweep]],
        sweeps: List[_VectorSweep],
        nb_idx: np.ndarray,
        nb_valid: np.ndarray,
        static_eligible: np.ndarray,
        faulty: np.ndarray,
    ) -> bool:
        """Advance campaign trials into pulse ``k``'s epoch; True if any moved.

        For each trial whose compiled schedule crosses an epoch boundary at
        ``k``, swaps the simulation's graph/plan
        (:meth:`FastSimulation._enter_epoch`), replaces its sweep (cached
        per epoch state, so revisited topologies rebuild nothing), and
        rewrites the trial's *rows* of the stacked gather/eligibility/fault
        tensors in place -- zeroing stale lanes first, since an epoch
        graph's max degree can shrink.  Unchanged trials (and unchanged
        pulses) cost one integer comparison each, which is what makes
        quiet epochs free.  The caller refreshes the derived aggregates
        (``layer_has_fault``, the delay/row caches) when this returns True.
        """
        changed = False
        for s, schedule in enumerate(schedules):
            if schedule is None:
                continue
            index = schedule.epoch_index(k)
            if index == epoch_cursor[s]:
                continue
            epoch_cursor[s] = index
            epoch = schedule.epochs[index]
            sim = self.sims[s]
            sim._enter_epoch(epoch)
            sweep = sweep_caches[s].get(epoch.state_key)
            if sweep is None:
                # Campaign stacks are padded (never uniform), so epoch
                # sweeps must carry the dense gather tables the stacked
                # 3-D tensors are rebuilt from.
                sweep = _VectorSweep(sim, backend="dense")
                sweep_caches[s][epoch.state_key] = sweep
            sweeps[s] = sweep
            # A vertex absent from this epoch through the end of the
            # horizon can never act again: free its lane.  Absence only
            # accumulates toward the horizon tail, so freed lanes stay
            # freed at later boundaries.
            lane_row = np.arange(self._lane_needed.shape[1]) < self._widths[s]
            gone = frozenset.intersection(
                *(ep.absent for ep in schedule.epochs[index:])
            )
            if gone:
                lane_row[np.fromiter(gone, dtype=np.int64)] = False
            self._lane_needed[s] = lane_row
            w, cols = sweep.nb_idx.shape
            depth = self._depths[s]
            nb_idx[s] = 0
            nb_valid[s] = False
            nb_idx[s, :w, :cols] = sweep.nb_idx
            nb_valid[s, :w, :cols] = sweep.nb_valid
            static_eligible[s] = False
            static_eligible[s, : depth - 1, :w] = sweep.static_eligible
            faulty[s] = False
            faulty[s, :depth, :w] = sweep.faulty
            changed = True
        return changed

    def _run_layer0_stacked(
        self,
        results: List[FastResult],
        times: np.ndarray,
        protocol_times: np.ndarray,
        branches: np.ndarray,
        k: int,
        rk: int,
    ) -> None:
        """Write layer 0's pulse-``k`` plane for every trial at once.

        Reads the stacked ``(S, P, W_max)`` schedule block -- or, on
        streamed runs, over one reusable ``(S, W_max)`` row refilled per
        pulse by :func:`~repro.core.layer0.stacked_pulse_row`
        (bit-identical entries).  ``rk`` is the block's storage row for
        pulse ``k`` (``k`` itself, or 0 on the rolling window).  Faulty
        layer-0 nodes record their sends one node at a time: each
        successor's send comes from a Python fault behavior.
        """
        if self._layer0_block is not None:
            row = self._layer0_block[:, k, :]  # (S, W), NaN on padding
        else:
            row = stacked_pulse_row(
                self._l0_schedules,
                self._l0_bases,
                k,
                out=self._l0_row_buffer,
            )
        protocol_times[:, rk, 0, :] = row
        branches[:, rk, 0, :] = self._l0_branch_row
        times[:, rk, 0, :] = np.where(self._l0_faulty, np.nan, row)
        for s in self._l0_fault_trials:
            for v in np.nonzero(self._l0_faulty[s])[0]:
                self._record_fault_sends(
                    results, s, int(v), 0, k, float(row[s, v])
                )

    def _record_fault_sends(
        self,
        results: List[FastResult],
        s: int,
        v: int,
        layer: int,
        k: int,
        correct_time: float,
    ) -> None:
        """Record faulty ``(v, layer)``'s pulse-``k`` sends of trial ``s``.

        The simulation records them in its result's ``fault_sends``
        (:meth:`FastSimulation._record_fault_sends`); the stack also
        writes them into the overlay of ``layer + 1``: an ``(own, nb)``
        pair laid out like that layer's delay arrays -- ``(S, W_max)``
        own copies plus ``(S, W_max, max_deg)`` neighbor copies, or the
        ``(S, nnz)`` edge vector on CSR stacks.  A silent send is
        ``+inf``, and so is every slot no send was recorded for.  The
        fallback reads a faulty predecessor's send from the overlay at
        the slot where it reads that edge's delay.
        """
        sends = self.sims[s]._record_fault_sends(
            results[s], (v, layer), k, correct_time
        )
        if not sends:
            return  # last layer: no successors
        overlay = self._sends.get(layer + 1)
        if overlay is None:
            num_trials = len(self.sims)
            nb_shape = (
                (num_trials, self._csr[1].shape[0])
                if self._csr is not None
                else (num_trials, self._width, self._max_deg)
            )
            overlay = (
                np.full((num_trials, self._width), np.inf),
                np.full(nb_shape, np.inf),
            )
            self._sends[layer + 1] = overlay
        own, nb = overlay
        values = [np.inf if send is None else send for send in sends]
        own[s, v] = values[0]
        nb[(s,) + self._sweeps[s].send_slots(v)] = values[1:]

    def _row_structs(
        self,
        rows,
        lanes,
        nb_idx: Optional[np.ndarray],
        nb_valid: Optional[np.ndarray],
        static_eligible: np.ndarray,
        faulty: np.ndarray,
        active: Optional[np.ndarray],
    ) -> Dict[str, object]:
        """Kernel inputs of the ``rows x lanes`` plane, cached by both sets.

        Depth-driven active sets are nested (they only shrink as the
        layer index grows), so at most one entry per distinct depth is
        ever built; dead-trial sets add at most a handful more, and lane
        sets one entry per distinct (row set, lane set) pair.  The full
        plane (both :data:`_ALL`) is one more entry of views.  Shared
        2-D gather tables (uniform stacks) are row-independent and pass
        through untouched; CSR stacks carry no padded tables at all
        (``nb_idx``/``nb_valid`` are None and the kernel reads the
        stack's shared CSR arrays).  With a lane set, the padded tables
        are additionally re-indexed into the compact column space:
        ``lane_pos`` maps original vertex ids to compacted columns, and
        entries pointing at dropped lanes (only ever behind an invalid
        mask -- no valid entry of an active trial references a dropped
        lane) collapse to column 0 harmlessly.

        Besides the kernel inputs, an entry carries ``index`` (the
        ``(rows, lanes)`` subscripts into the shared ``(S, W_max)``
        planes) and the original ``trials`` / ``vertices`` ids of its
        rows and columns (``vertices`` is None on the full width).
        """
        key = (
            None if isinstance(rows, slice) else rows.tobytes(),
            None if isinstance(lanes, slice) else lanes.tobytes(),
        )
        cached = self._row_cache.get(key)
        if cached is None:
            if nb_idx is not None and nb_idx.ndim == 3:
                sub_idx = nb_idx[rows]
                sub_valid = nb_valid[rows]
            else:
                sub_idx = nb_idx
                sub_valid = nb_valid
            sub_eligible = static_eligible[rows]
            sub_faulty = faulty[rows]
            sub_active = None if active is None else active[rows]
            index = (rows, _ALL)
            vertices = None
            if not isinstance(lanes, slice):
                lane_pos = np.zeros(self._width, dtype=np.int64)
                lane_pos[lanes] = np.arange(lanes.size, dtype=np.int64)
                sub_idx = lane_pos[sub_idx[:, lanes, :]]
                sub_valid = sub_valid[:, lanes, :]
                sub_eligible = sub_eligible[:, :, lanes]
                sub_faulty = sub_faulty[:, :, lanes]
                sub_active = sub_active[:, :, lanes]
                index = (rows[:, None], lanes[None, :])
                vertices = lanes
            cached = {
                "nb_idx": sub_idx,
                "nb_valid": sub_valid,
                "static_eligible": sub_eligible,
                "faulty": sub_faulty,
                "active": sub_active,
                "index": index,
                "trials": np.arange(len(self.sims))[rows],
                "vertices": vertices,
                "params": (
                    self._params.take(rows)
                    if isinstance(self._params, _StackedParams)
                    else self._params
                ),
                "policy": (
                    self._policy.take(rows)
                    if isinstance(self._policy, _StackedPolicy)
                    else self._policy
                ),
            }
            self._row_cache[key] = cached
        return cached

    def _run_layer_stacked(
        self,
        results: List[FastResult],
        matrices: Tuple[np.ndarray, ...],
        structs: Dict[str, object],
        delays: Tuple[np.ndarray, np.ndarray],
        rate: np.ndarray,
        layer_faulty: bool,
        k: int,
        layer: int,
        rk: int,
    ) -> None:
        """Advance pulse ``k`` of ``layer`` on the selected plane.

        Delegates to the shape-generic
        :func:`~repro.core.fast._layer_step_kernel` (or its CSR twin on
        ``csr`` stacks); see the module docstring for the exactness
        argument.  ``structs`` (from :meth:`_row_structs`) holds the
        kernel inputs of the plane :func:`_select_cells` picked, and
        ``delays``/``rate`` are already compacted the same way.  The
        full plane is the identity case: its subscripts are
        ``slice(None)``.  ``matrices`` are the shared ``times``,
        ``protocol_times``, ``corrections``, ``effective`` and
        ``branches`` blocks; ``rk`` is the storage row of pulse ``k``
        (``k`` itself on materialized runs, 0 on the rolling window).

        Results scatter back through the plane's subscripts.  Ineligible
        cells are written with the padding values (``NaN``/``"none"``)
        that the rest of the block starts with, so the output is
        bit-identical to a full-plane step: cells outside the plane keep
        their initial padding, which is also what a full-plane step
        produces for them (inert, silent and horizon-absent cells are
        never eligible, and their fallback replays record nothing).
        ``structs["active"]`` (None on uniform stacks) masks the padding
        inside the plane, so inert cells are never replayed by the
        batched fallback.  Every other rejected cell of the plane is
        resolved by one :meth:`_run_fallback` pass.
        """
        times, protocol_times, corrections, effective, branches_out = matrices
        sims = self.sims
        sent = self._sends.pop(layer, None)
        ri, ci = structs["index"]
        prev = times[ri, rk, layer - 1, ci]  # NaN = missing
        own_delay, nb_delay = delays
        simplified = sims[0].algorithm == "simplified"
        if self._csr is not None:
            indptr, indices, owner, has_neighbors = self._csr
            eligible, correction, branches, pulse_time, eff = (
                _layer_step_kernel_csr(
                    prev,
                    own_delay,
                    nb_delay,
                    rate,
                    indptr,
                    indices,
                    owner,
                    has_neighbors,
                    structs["static_eligible"][:, layer - 1, :],
                    structs["params"],
                    structs["policy"],
                    simplified,
                )
            )
        else:
            eligible, correction, branches, pulse_time, eff = (
                _layer_step_kernel(
                    prev,
                    own_delay,
                    nb_delay,
                    rate,
                    structs["nb_idx"],
                    structs["nb_valid"],
                    structs["static_eligible"][:, layer - 1, :],
                    structs["params"],
                    structs["policy"],
                    simplified,
                )
            )
        eligible = _kernel_cells(eligible)

        if not layer_faulty and eligible.all():
            # Common case (no trial has a fault on this layer, every cell
            # on the fast path): plain assignments, no selects.
            corrections[ri, rk, layer, ci] = correction
            branches_out[ri, rk, layer, ci] = branches
            effective[ri, rk, layer, ci] = eff
            protocol_times[ri, rk, layer, ci] = pulse_time
            times[ri, rk, layer, ci] = pulse_time
            return

        faulty_here = structs["faulty"][:, layer, :]
        corrections[ri, rk, layer, ci] = np.where(eligible, correction, np.nan)
        branches_out[ri, rk, layer, ci] = np.where(
            eligible, branches, BRANCH_CODES["none"]
        )
        effective[ri, rk, layer, ci] = np.where(eligible, eff, np.nan)
        protocol_times[ri, rk, layer, ci] = np.where(
            eligible, pulse_time, np.nan
        )
        times[ri, rk, layer, ci] = np.where(
            eligible & ~faulty_here, pulse_time, np.nan
        )
        trials = structs["trials"]
        vertices = structs["vertices"]
        if layer_faulty:
            for si, vi in zip(*np.nonzero(eligible & faulty_here)):
                self._record_fault_sends(
                    results,
                    int(trials[si]),
                    int(vi if vertices is None else vertices[vi]),
                    layer,
                    k,
                    float(pulse_time[si, vi]),
                )
        active = structs["active"]
        fallback = (
            ~eligible if active is None else active[:, layer, :] & ~eligible
        )
        if fallback.any():
            self._run_fallback(
                results, matrices, structs, prev, delays, rate, sent,
                np.nonzero(fallback), k, layer, rk,
            )

    def _run_fallback(
        self,
        results: List[FastResult],
        matrices: Tuple[np.ndarray, ...],
        structs: Dict[str, object],
        prev: np.ndarray,
        delays: Tuple[np.ndarray, np.ndarray],
        rate: np.ndarray,
        sent: Optional[Tuple[np.ndarray, np.ndarray]],
        cells: Tuple[np.ndarray, np.ndarray],
        k: int,
        layer: int,
        rk: int,
    ) -> None:
        """Resolve every kernel-rejected cell of one layer step in one pass.

        ``cells`` are the ``(row, column)`` positions of the rejected
        cells in the plane :meth:`_run_layer_stacked` ran on, whose
        ``prev`` send times, ``delays`` and ``rate`` it passes on.  Each
        cell's arrival events are gathered from those arrays: the own
        copy at the cell's own column, the neighbor copies through the
        plane's neighbor table (or the shared CSR segments).  A faulty
        predecessor's send comes from ``sent``, the overlay its
        recorded sends were written to (:meth:`_record_fault_sends`;
        None when no faulty predecessor sent anything), and a missing
        message is ``+inf``.  Parameters are each cell's trial's own.
        :func:`~repro.core.fast._fallback_replay` then replays all cells
        at once, and the outcomes scatter back to the cells' trials and
        vertices; faulty cells that pulse record their sends.
        """
        times, protocol_times, corrections, effective, branches = matrices
        si, vi = cells
        trials = structs["trials"][si]
        vertices = vi if structs["vertices"] is None else structs["vertices"][vi]
        own_delay, nb_delay = delays
        prev_faulty = structs["faulty"][:, layer - 1, :]

        # Neighbor slots of each cell: source column in the plane,
        # validity, delay, and overlay index.
        if self._csr is None:
            nb_idx, nb_valid = structs["nb_idx"], structs["nb_valid"]
            if nb_idx.ndim == 3:
                source, valid = nb_idx[si, vi], nb_valid[si, vi]
            else:
                source, valid = nb_idx[vi], nb_valid[vi]
            nb_d = nb_delay[si, vi]
            slot = (trials, vertices)
        else:
            indptr, indices = self._csr[0], self._csr[1]
            start = indptr[vi]
            degree = indptr[vi + 1] - start
            offsets = np.arange(int(degree.max()))
            valid = offsets < degree[:, None]
            entry = np.minimum(start[:, None] + offsets, indices.shape[0] - 1)
            source = indices[entry]
            nb_d = nb_delay[si[:, None], entry]
            slot = (trials[:, None], entry)
        row = si[:, None]
        own_sent = nb_sent = np.inf  # no faulty predecessor sent anything
        if sent is not None:
            own_sent = sent[0][trials, vertices]
            nb_sent = sent[1][slot]
        own_send = np.where(prev_faulty[si, vi], own_sent, prev[si, vi])
        nb_send = np.where(prev_faulty[row, source], nb_sent, prev[row, source])

        ev_time = np.empty((si.size, 1 + valid.shape[1]))
        ev_time[:, 0] = own_send + own_delay[si, vi]
        ev_time[:, 1:] = np.where(valid, nb_send + nb_d, np.inf)
        # A correct predecessor that never pulsed sent nothing.
        ev_time[np.isnan(ev_time)] = np.inf

        params, policy = self._params, self._policy
        if isinstance(params, _StackedParams):
            params = params.take(trials, flat=True)
        if isinstance(policy, _StackedPolicy):
            policy = policy.take(trials, flat=True)
        rates = rate[si, vi]
        pulses, correction, branch_codes, pulse_time, eff, h_own = (
            _fallback_replay(
                ev_time,
                valid.sum(axis=1),
                rates,
                params,
                policy,
                self.sims[0].algorithm == "simplified",
            )
        )

        corrections[trials, rk, layer, vertices] = correction
        branches[trials, rk, layer, vertices] = branch_codes
        eff_ok = pulses & np.isfinite(h_own)
        effective[trials[eff_ok], rk, layer, vertices[eff_ok]] = eff[eff_ok]
        protocol_times[trials[pulses], rk, layer, vertices[pulses]] = (
            pulse_time[pulses]
        )
        faulty = structs["faulty"][si, layer, vi]
        ok = pulses & ~faulty
        times[trials[ok], rk, layer, vertices[ok]] = pulse_time[ok]
        for i in np.flatnonzero(pulses & faulty):
            self._record_fault_sends(
                results,
                int(trials[i]),
                int(vertices[i]),
                layer,
                k,
                float(pulse_time[i]),
            )

        # Per-trial accounting keeps its meaning: a trial's batch is one
        # (pulse, layer) step with any rejected cell of that trial.
        self._fallback_passes += 1
        counts = np.bincount(trials)
        for s in np.flatnonzero(counts):
            results[s].fallback_batches += 1
            results[s].fallback_cells += int(counts[s])
