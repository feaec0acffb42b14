"""Trial-stacked, pulse-blocked ``(S, B, W)`` kernel for the fast simulator.

:class:`~repro.core.fast.FastSimulation` walks the pulse/layer recurrence
(Lemma B.1) one layer step at a time.  Because the recurrence has no
cross-trial coupling -- trial ``s``'s pulse ``k`` of layer ``l`` depends
only on trial ``s``'s pulse ``k`` of layer ``l - 1`` -- ``S`` compatible
trials can advance through it in lock-step, with every per-layer array
op over the ``(S, W)`` plane.  That is what :class:`TrialStack` does:
reception times, do-until exit test, correction, and pulse time are
computed for the whole plane at once, so the Python-loop overhead per
layer step is paid once per *batch* instead of once per *trial*.  The
same argument runs along the pulse axis (see "Pulse blocks" below), so
each layer step covers a block of ``B`` pulses of every trial.  The
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
neighbor gathers run through the stack's union entry axis (see "One
neighbor layout" below); numeric parameters
(``kappa``/``vartheta``/``Lambda``/``d``) and the policy's
``jump_slack`` broadcast as per-trial ``(S, 1)`` columns.  The layer-0
schedules of the whole stack are filled one pulse block at a time by
:func:`~repro.core.layer0.stacked_pulse_times`, straight into the
block's layer-0 rows, instead of ``S`` per-trial gathers and row loops.

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

Pulse blocks (several pulses per layer step)
--------------------------------------------
Pulse ``k`` of layer ``l`` depends only on pulse ``k`` of layer
``l - 1``, so pulses are as independent as trials.  :meth:`TrialStack.run`
loops over pulse blocks and, inside each block, over layers; every layer
step runs on an ``(S, B, W)`` plane of the block's ``B`` pulses.  Inputs
that do not change with the pulse carry a length-1 pulse axis and
broadcast -- static delays and rates, parameter columns, static
eligibility, the neighbor tables -- and are never repeated; inputs that
do change fill ``(S, B, ...)`` arrays: a pulse-varying delay model's
delays, callable clock rates, the layer-0 rows and the faulty nodes'
send overlays.  One private rule, :func:`_pulse_blocks`, picks the
blocks of every run (streamed or materialized, one trial or many) from
a measured per-step cost curve and a measured memory model.  Per pulse,
a step gets cheaper as its plane grows, up to a cliff near 16,384
float64 cells (128 KiB), past which glibc hands the step's temporaries
back to the kernel and every step faults them in again; so a block
fills its plane toward 14,336 cells and never past them.  A streamed
run holds about 8.5 values per (trial, vertex, layer) whatever the
blocks and about 34 per (trial, vertex, pulse) of a block (its ring plus
the step's temporaries), so ``B`` is also capped by memory: to two
thirds of what the fixed inputs leave of one ``(S, K, L, W)`` matrix,
or, where those dominate a short horizon, to ``L / 4`` pulses (a ring no
larger than the fixed inputs) on planes up to 6,144 cells, where the
cost curve flattens; planes under 512 cells may always fill that many.
The blocks of a segment are balanced, ``ceil(K / ceil(K / B))`` pulses
or one fewer, so the short fault and cold-sweep horizons run in one
block and a 64-pulse one in three.  Blocks never span a pulse at which
some trial enters a campaign epoch, so epoch entries run before a
block's first pulse.

A streamed run (``store_times=False``) stores its times, protocol times
and corrections as a two-layer ring, ``(S, B, 2, W)``: the previous and
the current layer of the block (no result of it is handed effective
corrections or branch codes, so they are neither computed nor stored).
Every layer subscript of the step, the fallback and the
fault-send records goes through :func:`_slot` (``layer`` on a
materialized run, ``layer % 2`` in the ring).  After each (block,
layer) step every run, streamed or not, folds that layer's planes into
its :class:`~repro.analysis.streaming.StreamedStats`.  A ring step that
writes only part of its slot (compacted rows or lanes, a skipped step)
resets the slot to padding first (a materialized slot starts as padding
and is written once), so every cell it did not write reads NaN.
The streamed working set is O(S * B * W), whatever the depth and the
horizon.  Compaction keeps its meaning per (trial, pulse):
a row leaves the plane when its trial is past its depth or dead in every
pulse of the block, and the cells of a dead pulse inside a surviving
row are masked out of the fallback like padding.  The fallback resolves
the rejected ``(row, pulse, vertex)`` cells of a block step in one pass,
and the fault sends of a block step are recorded in one call.

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
is freed at the epoch boundary (epoch entries re-derive the free-lane
set).  Neighbor tables are re-indexed into the compact column space
(``lane_pos``), the kernel runs on the ``(S_active, C)`` plane, and
results scatter back through ``rows x lanes`` -- dropped lanes keep
their initial padding, which is exactly what the uncompacted path writes
there (padding is never eligible, and a horizon-absent vertex's fallback
replay records NaN/"none", the padding values, and no fault sends).

One layer step
--------------
The full ``(S, B, W_max)`` plane is the identity case of compaction:
rows and lanes index with ``slice(None)``.  :func:`_select_cells` picks
the rows and lanes of each step, and :meth:`_StackRun.layer_step`
runs the kernel on whatever plane they select, so the kernel call lives
in one place.  Tests and benchmarks replace
:func:`_select_cells` with the identity to measure or pin the
uncompacted plane; it is a test seam, not an option.

One run, one state
------------------
Every :meth:`TrialStack.run` builds a private :class:`_StackRun` that
holds all it writes: the shared result matrices, the trials' sweeps,
the stacked neighbor, eligibility and fault tables, the delay and row
caches, the fault table and send log, and the step counters.  Its
methods are the phases of the pipeline: the gathers of a step's
inputs, layer 0, the layer step, the fallback, the fault-send record,
the statistics fold and the campaign epoch entry.  A campaign epoch
builds its trial's sweep from the epoch's own graph and fault plan and
rewrites the trial's rows of the run's tables; the
:class:`~repro.core.fast.FastSimulation` itself is never modified.  So
the stack and its simulations are only read, their run inputs only
memoize what their arguments fix, and two threads may run one stack at once.

One neighbor layout
-------------------
Every stack keeps its neighbor copies on one flat entry axis in CSR
order (:meth:`~repro.topology.base_graph.BaseGraph.neighbor_csr`:
vertex ``v``'s copies at ``indptr[v] + j``): neighbor delays are ``(S,
P, E)``, the fault-send overlay ``(B, S, E)``, and the fallback reads a
cell's copies at its entries.  A uniform stack's axis is its base
graph's, ``E = nnz``.  A padded stack (mixed adjacency, or campaign
epochs) uses a union axis on which vertex ``v`` gets the most copies it
has in any trial's graph or compiled epoch graph, with per-trial ``(S,
E)`` source and validity rows that :meth:`_StackRun.set_sweep` rewrites
at epoch entries.  The kernel folds the axis one degree column at a
time (:func:`~repro.core.fast._neighbor_bounds`), so memory stays
``O(W + E)`` per layer however skewed the degrees are: no ``(W,
max_deg)`` table is ever built.

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
Every stack -- one trial or many, one pulse per block or many --
evaluates the same elementwise operations of
:func:`~repro.core.fast._layer_step_kernel` on a trial's cells
(parameter columns and pulse-invariant inputs broadcast; min and max
are exact in any fold order), so its eligible cells get bit-identical
floats whatever stack and block they run in.  Rejected cells go through
one batched fallback pass per block step (:meth:`_StackRun.fallback`),
which gathers each cell's arrivals from arrays (the ``times`` plane, or
the overlay of a faulty predecessor's recorded sends) and mirrors the
scalar rule (:func:`~repro.core.fast._scalar_replay`) per cell.  The
reference is a seam, not a second driver: patching :func:`_kernel_cells`
to :func:`numpy.zeros_like` and :func:`_fallback_replay` to
:func:`~repro.core.fast._scalar_replay` resolves every cell with the
scalar rule; the tests compare both against per-trial runs.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.streaming import StreamLayout, StreamedStats
from repro.core.fast import (
    BRANCH_CODES,
    FastResult,
    FastSimulation,
    _VectorSweep,
    _fallback_replay,
    _layer_step_kernel,
    _read_only,
)
from repro.core.layer0 import stacked_pulse_times
from repro.faults.model import SendBatch, send_offsets
from repro.topology.base_graph import degree_columns
from repro.topology.layered import NodeId

__all__ = ["TrialStack", "stack_compatibility"]

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


#: Most cells a multi-pulse block's ``(S, B, W)`` plane may hold.  Per
#: pulse, a block step gets cheaper as its plane grows, until glibc
#: starts returning the step's freed temporaries to the kernel, so that
#: every step page-faults them in afresh.  In a ``stream_horizon``
#: benchmark process (560 cells a pulse) that cliff sat just under
#: 16,384 float64 cells (128 KiB): 15,680 cells ran at 42 ms an op,
#: 16,240 at 65 ms, and with glibc's heap trimming raised the jump was
#: gone.  glibc moves its thresholds up after large frees, so the
#: cliff depends on what the process allocated before; the
#: ``block_curve`` bench section records it in a test process.  An
#: eighth of headroom below 16,384 keeps blocks clear of it.
_PLANE_CELLS = 14336
#: Plane size, in cells, where the cost curve flattens: on both recorded
#: shapes the per-pulse step cost falls about 4x from one pulse to here
#: and at most about 1.5x after.  A block the memory model below would
#: not allow may still fill its plane this far (see :func:`_pulse_blocks`).
_KNEE_CELLS = 6144
#: The streamed peak, in float64 values per ``(trial, vertex)`` cell of
#: the plane (tracemalloc, warm runs): about ``_FIXED_VALUES`` per layer
#: that the run holds whatever the blocks -- stacked delays, the rate
#: plane, masks, statistics; 7.0-9.9 measured -- plus ``_RING_VALUES``
#: per pulse of a block -- the two-layer ring of five matrices and a
#: step's temporaries; 33.4-34.0 measured, 38 with faults (before the
#: ring dropped two of those five matrices, so it now errs high).
_FIXED_VALUES = 8.5
_RING_VALUES = 34
#: Plane size, in cells, a block may always fill, whatever the horizon:
#: below it the run's fixed costs outweigh one matrix anyway.
_MIN_BLOCK_CELLS = 512


def _pulse_blocks(
    num_pulses: int,
    num_layers: int,
    plane_cells: int,
    starts: Sequence[int] = (),
) -> List[Tuple[int, int]]:
    """The run's pulse blocks, as ``[(k0, k1), ...]`` half-open ranges.

    ``plane_cells`` is ``S * W``.  A block holds at most ``B`` pulses:
    as many as fill a plane of :data:`_PLANE_CELLS` cells, where the
    per-step cost is lowest, but no more than the memory model allows.
    Per ``(trial, vertex)`` cell the streamed peak is about ``F * L + R
    * B`` float64 values (:data:`_FIXED_VALUES`, :data:`_RING_VALUES`),
    against ``K * L`` for one ``(S, K, L, W)`` result matrix.  So a
    block may hold

    * ``2 (K - F) L / (3 R)`` pulses: the ring takes at most two thirds
      of what the fixed inputs leave of one matrix, and the peak stays
      under one matrix whenever the fixed inputs do; or
    * ``F L / R = L / 4`` pulses -- a ring no larger than the fixed
      inputs, which dominate short horizons -- while its plane stays
      within :data:`_KNEE_CELLS` cells, where the cost curve flattens;
      or
    * as many as fill :data:`_MIN_BLOCK_CELLS` cells.

    Within each segment the blocks are balanced: ``ceil(n / ceil(n /
    B))`` pulses or one fewer, so no block is a ragged tail.  ``starts``
    are the pulses at which some trial enters a campaign epoch: a block
    never spans one, so epoch entries run before the first pulse of a
    block.  The one rule for every run, not an option; tests patch it to
    pin one-pulse and whole-horizon blocks.
    """
    cells = max(plane_cells, 1)
    size = min(
        num_pulses,
        max(1, _PLANE_CELLS // cells),
        max(
            1,
            int(2 * (num_pulses - _FIXED_VALUES) * num_layers / (3 * _RING_VALUES)),
            min(int(_FIXED_VALUES * num_layers / _RING_VALUES), _KNEE_CELLS // cells),
            _MIN_BLOCK_CELLS // cells,
        ),
    )
    cuts = sorted({0, num_pulses, *(k for k in starts if 0 < k < num_pulses)})
    blocks = []
    for start, end in zip(cuts, cuts[1:]):
        count = -(-(end - start) // size)
        small, extra = divmod(end - start, count)
        edges = [start + i * small + min(i, extra) for i in range(count + 1)]
        blocks.extend(zip(edges, edges[1:]))
    return blocks


def _slot(matrix: np.ndarray, layer: int) -> int:
    """The storage slot of ``layer`` in a result matrix of a run.

    The layer itself on a materialized run; ``layer % 2`` in a streamed
    run's two-layer ring (``layer % L`` is ``layer`` when the matrix has
    a slot per layer, so one expression serves both).
    """
    return layer % matrix.shape[2]


def _select_cells(
    layer: int,
    depths: np.ndarray,
    dead: Optional[np.ndarray],
    prev_protocol: np.ndarray,
    lane_needed: Optional[np.ndarray],
):
    """Rows and lanes of the working plane for one layer step of a block.

    Returns ``(rows, lanes)`` -- each :data:`_ALL` (the whole axis) or an
    index array; ``lanes`` is an array only together with ``rows`` -- or
    ``None`` when no cell of the step needs computing.  A row survives
    while its trial is deeper than ``layer`` and is live in some pulse
    of the block.  ``dead`` (None on fault-free stacks, where no trial
    can go dead) is the ``(S, B)`` dead mask of every (trial, pulse),
    updated in place from ``prev_protocol``, the ``(S, B, W_max)``
    protocol plane of layer ``layer - 1``.  A lane survives while some
    surviving row still needs it (``lane_needed``; None on uniform
    stacks, which carry no width padding).  See the module docstring
    for why dropping the rest is exact.
    """
    mask = depths > layer
    if dead is not None:
        # A (trial, pulse) goes dead for the rest of the pulse when *no*
        # node of its previous layer produced a pulse (protocol row
        # all-NaN): correct nodes sent nothing and faulty nodes recorded
        # no sends, so no message can reach this or any deeper layer.
        candidates = np.flatnonzero(mask & ~dead.all(axis=1))
        if candidates.size:
            silent = np.isnan(prev_protocol[candidates]).all(axis=-1)
            if silent.any():
                dead[candidates] |= silent
        mask &= ~dead.all(axis=1)
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


def _clear_slot(matrices: Sequence[Optional[np.ndarray]], window: slice, slot: int) -> None:
    """Reset one ring slot of a block's storage rows to NaN (a ring has
    no branch-code or effective-correction matrix: None)."""
    for matrix in matrices:
        if matrix is not None:
            matrix[:, window, slot] = np.nan


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
    """Per-trial ``(S, 1, 1)`` numeric parameter columns for the kernel.

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
            setattr(self, name, column[:, None, None])

    def take(self, rows: np.ndarray, flat: bool = False) -> "_StackedParams":
        """The columns of the compacted row subset (same broadcast shape).

        With ``flat``, one value per entry of ``rows`` instead: the
        per-cell vectors of the stack-wide fallback.
        """
        taken = object.__new__(type(self))
        for name in self.__slots__:
            column = getattr(self, name)
            setattr(taken, name, column[rows, 0, 0] if flat else column[rows])
        return taken


class _StackedPolicy:
    """Per-trial policy for the kernel: structural bools + numeric column."""

    __slots__ = ("discretize", "stick_to_median", "jump_slack")

    def __init__(self, sims: Sequence[FastSimulation]) -> None:
        self.discretize = sims[0].policy.discretize
        self.stick_to_median = sims[0].policy.stick_to_median
        self.jump_slack = np.array(
            [sim.policy.jump_slack for sim in sims]
        )[:, None, None]

    def take(self, rows: np.ndarray, flat: bool = False) -> "_StackedPolicy":
        """The policy restricted to the compacted row subset (or, with
        ``flat``, one ``jump_slack`` per entry of ``rows``)."""
        taken = object.__new__(type(self))
        taken.discretize = self.discretize
        taken.stick_to_median = self.stick_to_median
        taken.jump_slack = (
            self.jump_slack[rows, 0, 0] if flat else self.jump_slack[rows]
        )
        return taken


class _FaultTable:
    """The stack's faulty senders, the slots of their sends, their offsets.

    Concatenates the sweeps' :attr:`~repro.core.fast._VectorSweep.fault_rows`
    into one padded table: row ``r`` is faulty node ``(vertex[r],
    layer[r])`` of trial ``trial[r]``, column 0 its own copy and the
    other columns its neighbor copies (``successors``, valid where
    ``valid``).  ``own_slot`` / ``nb_slot`` are the flat indices of each
    send in one pulse's planes of the overlay of layer ``layer[r] + 1``:
    the ``(S, W_max)`` own-copy plane and the ``(S, E)`` neighbor-copy
    plane on the stack's entry axis (``positions[s]`` maps trial ``s``'s
    CSR entries onto it; None: they are the axis).

    Every behaviour sends at ``correct time + offset``.  The offsets of
    the static behaviours are computed once, here; the dynamic ones once
    per pulse block, for all of its pulses (:meth:`start_block`).  Each
    is one :func:`~repro.faults.model.send_offsets` call for the whole
    stack, one behaviour-class call per class.
    """

    def __init__(
        self,
        sims: Sequence[FastSimulation],
        sweeps: Sequence[_VectorSweep],
        width: int,
        positions: Sequence[Optional[np.ndarray]],
        num_entries: int,
    ) -> None:
        parts = [
            (s, sweep.fault_rows)
            for s, sweep in enumerate(sweeps)
            if sweep.fault_rows is not None
        ]
        counts = [len(part.vertices) for _, part in parts]
        self.trial = np.repeat([s for s, _ in parts], counts).astype(np.int64)
        self.vertex = np.concatenate([part.vertices for _, part in parts])
        self.layer = np.concatenate([part.layers for _, part in parts])
        behaviors = [b for _, part in parts for b in part.behaviors]
        self.nb_shape = (len(sweeps), num_entries)
        size = self.trial.size
        degree = max(part.neighbors.shape[1] for _, part in parts)
        self.successors = np.zeros((size, 1 + degree), dtype=np.int64)
        self.successors[:, 0] = self.vertex
        self.valid = np.zeros((size, 1 + degree), dtype=bool)
        self.valid[:, 0] = True
        self.nb_slot = np.zeros((size, degree), dtype=np.int64)
        start = 0
        for (s, part), count in zip(parts, counts):
            rows, cols = slice(start, start + count), part.neighbors.shape[1]
            self.successors[rows, 1 : 1 + cols] = part.neighbors
            self.valid[rows, 1 : 1 + cols] = part.valid
            entries = part.entries if positions[s] is None else positions[s][part.entries]
            self.nb_slot[rows, :cols] = s * num_entries + entries
            start += count
        self.own_slot = self.trial * width + self.vertex
        self.layer_rows = {}
        for layer in np.unique(self.layer).tolist():
            rows = np.flatnonzero(self.layer == layer)
            self.layer_rows[layer] = (rows, self.trial[rows], self.vertex[rows])

        rows, cols = np.nonzero(self.valid)
        kappa = np.array([sim.params.kappa for sim in sims], dtype=float)
        sends = SendBatch(
            owner=rows,
            node=(self.vertex[rows], self.layer[rows]),
            successor=(self.successors[rows, cols], self.layer[rows] + 1),
            pulse=np.zeros(rows.size, dtype=np.int64),
            kappa=kappa[self.trial[rows]],
        )
        static = np.array([b.is_static() for b in behaviors])[rows]
        self.offsets = np.zeros(self.valid.shape)
        if static.any():
            at = np.flatnonzero(static)
            self.offsets[rows[at], cols[at]] = send_offsets(
                behaviors, sends.take(at)
            )
        self._dynamic = None
        self.block_offsets: Optional[np.ndarray] = None
        if not static.all():
            at = np.flatnonzero(~static)
            self._dynamic = ((rows[at], cols[at]), behaviors, sends.take(at))

    def start_block(self, pulses: range) -> None:
        """Compute the offsets of every send of every pulse of a block.

        :attr:`block_offsets` becomes the block's ``(B, R, M)`` table
        until the next block: the static offsets broadcast over the
        block, with the dynamic sends of all of its pulses filled in by
        one :func:`~repro.faults.model.send_offsets` call (pulse-major).
        """
        shape = (len(pulses),) + self.offsets.shape
        if self._dynamic is None:
            self.block_offsets = np.broadcast_to(self.offsets, shape)
            return
        (rows, cols), behaviors, sends = self._dynamic
        size = sends.pulse.size
        repeated = sends.take(np.tile(np.arange(size), len(pulses)))
        offsets = np.repeat(self.offsets[None], len(pulses), axis=0)
        offsets[:, rows, cols] = send_offsets(
            behaviors,
            replace(repeated, pulse=np.repeat(np.arange(pulses.start, pulses.stop), size)),
        ).reshape(len(pulses), size)
        self.block_offsets = offsets


class _FaultSendLog:
    """The fault sends one stack run recorded, as array chunks.

    Each chunk is one :meth:`_StackRun.record_fault_sends` call:
    ``(table, rows, pulses, sends)`` -- the table rows that sent in the
    block, the pulse of each, and their ``(n, M)`` send times (``+inf``
    = silent), pulse-major.  :meth:`sends_of` builds one trial's
    ``fault_sends`` dict from them.
    """

    def __init__(self) -> None:
        self.chunks: List[
            Tuple[_FaultTable, np.ndarray, np.ndarray, np.ndarray]
        ] = []

    def sends_of(
        self, trial: int
    ) -> Dict[Tuple[NodeId, NodeId], Dict[int, Optional[float]]]:
        """Trial ``trial``'s ``{(node, successor): {pulse: time or None}}``."""
        out: Dict[Tuple[NodeId, NodeId], Dict[int, Optional[float]]] = {}
        for table, rows, pulses, sends in self.chunks:
            mine = table.trial[rows] == trial
            if not mine.any():
                continue
            rows = rows[mine]
            for v, layer, successors, valid, k, values in zip(
                table.vertex[rows].tolist(),
                table.layer[rows].tolist(),
                table.successors[rows].tolist(),
                table.valid[rows].tolist(),
                pulses[mine].tolist(),
                sends[mine].tolist(),
            ):
                node = (v, layer)
                for successor, ok, send in zip(successors, valid, values):
                    if ok:
                        out.setdefault((node, (successor, layer + 1)), {})[k] = (
                            None if send == math.inf else send
                        )
        return out


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
    reads and writes whole ``(S, B, W_max)`` planes of pulse blocks
    without gathering.  The block is attached to each result (``stack_block``/``stack_row``) and
    frozen once the run completes: stacked results are immutable
    snapshots, so no caller can corrupt the memory every trial of the
    stack shares (``BatchResult`` adopts the block without copying).

    Every layer step runs on the rows and lanes that still need it (see
    the module docstring).  After :meth:`run`, :attr:`compaction_stats`
    holds the padded vs executed row- and lane-step accounting of the
    last run, its pulse blocks and the batched-fallback counts.

    Each run keeps its state in a :class:`_StackRun` of its own and
    only reads the simulations, so one stack may run on several threads
    at once (see "One run, one state" in the module docstring).

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

    def run(
        self,
        num_pulses: int,
        store_times: bool = True,
    ) -> List[FastResult]:
        """Simulate ``num_pulses`` pulses for every trial; per-trial results.

        The run advances pulse blocks (:func:`_pulse_blocks`): every
        layer step covers the ``B`` pulses of one block at once.  Every
        run folds its statistics online into one
        :class:`~repro.analysis.streaming.StreamedStats`, one fold per
        (block, layer) step over the planes the kernel just wrote, and
        hands it to every result (``result.streamed`` /
        ``streamed_row``).  ``store_times`` decides only whether the
        ``(S, K, L, W)`` matrices are kept: with ``False`` they shrink to
        a two-layer ring of ``(S, B, W)`` planes (the previous and the
        current layer of the block; see :func:`_slot`) -- memory
        O(S, B, W) instead of O(S, K, L, W) -- and the results' matrices
        are ``None``.  Either way the layer-0 schedules are filled one
        block at a time, straight into the block's rows.
        The folded statistics are bitwise identical to the array
        reducers of :mod:`repro.analysis.skew` on the materialized
        matrices (see :mod:`repro.analysis.streaming`).
        """
        results, self.compaction_stats = _StackRun(
            self.sims, num_pulses, store_times
        ).run()
        return results


class _StackRun:
    """One :meth:`TrialStack.run` call: its state and its pipeline phases.

    Built afresh by every call, it holds everything the run writes: the
    shared result matrices, the trials' sweeps (swapped at campaign
    epochs), the stacked neighbor, eligibility and fault tables, the
    rate plane and the delay and row caches, the fault table and send
    log, and the step counters.  The simulations are only read.  Its
    phases are the gathers of a layer step's inputs
    (:meth:`delay_stack`, :meth:`rate_stack`, :meth:`row_structs`),
    :meth:`layer0`, :meth:`layer_step`, :meth:`fallback`,
    :meth:`record_fault_sends`, :meth:`fold` and :meth:`enter_epochs`;
    :meth:`run` drives them block by block and layer by layer.
    """

    def __init__(
        self, sims: List[FastSimulation], num_pulses: int, store_times: bool
    ) -> None:
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {num_pulses}")
        self.sims = sims
        self.num_pulses = num_pulses
        self.store_times = store_times
        num_trials = len(sims)
        self.widths = widths = [sim.graph.width for sim in sims]
        self.depths = depths = [sim.graph.num_layers for sim in sims]
        self.depth_array = np.array(depths)
        self.width = width = max(widths)
        self.num_layers = num_layers = max(depths)
        # Chaos campaigns compile to per-epoch adjacency + fault state up
        # front; trials under a campaign swap their rows of the stacked
        # tables at epoch boundaries (see enter_epochs), which needs the
        # per-trial 3-D gather tables of the padded path.
        self.schedules = [
            None
            if sim.campaign is None
            else sim.campaign.compile(num_pulses, base_plan=sim.fault_plan)
            for sim in sims
        ]
        self.epoch_cursor = [-1] * num_trials
        # Epoch sweeps per trial, keyed by epoch state (a topology that
        # returns to an earlier state reuses its gather tables).
        self.epoch_sweeps: List[Dict[Tuple, _VectorSweep]] = [{} for _ in sims]
        adjacency0 = sims[0].graph.base.adjacency
        self.uniform = all(
            schedule is None
            and depth == num_layers
            and sim.graph.base.adjacency == adjacency0
            for schedule, depth, sim in zip(self.schedules, depths, sims)
        )

        self.stream = StreamedStats(StreamLayout.from_sims(sims, num_pulses))
        self.results = [
            FastResult(sim.graph, sim.params, sim.fault_plan, num_pulses, allocate=False)
            for sim in sims
        ]
        self.blocks = _pulse_blocks(
            num_pulses,
            num_layers,
            num_trials * width,
            [
                epoch.start
                for schedule in self.schedules
                if schedule is not None
                for epoch in schedule.epochs
            ],
        )
        # Layer 0: one stacked fill per block (see layer0).
        self.layer0_sources = (
            [sim.layer0 for sim in sims],
            [sim.graph.base for sim in sims],
        )
        # One shared block per matrix: every pulse and layer, or on a
        # streamed run a two-layer ring of one pulse block (_slot maps a
        # layer to its slot) without the effective-correction and branch
        # planes (None).  Cells outside a trial's window stay NaN
        # (padding never turns eligible; the whole-plane fast path only
        # runs on uniform stacks).
        shape = (
            (num_trials, num_pulses, num_layers, width)
            if store_times
            else (
                num_trials,
                max(k1 - k0 for k0, k1 in self.blocks),
                min(num_layers, 2),
                width,
            )
        )
        self.matrices = tuple(np.full(shape, np.nan) for _ in range(4 if store_times else 3)) + (
            (np.full(shape, BRANCH_CODES["none"], dtype=np.int8),) if store_times else (None, None)
        )
        if store_times:
            # Each FastResult holds the trial-s window view, so analysis
            # code reads through it.
            for s, result in enumerate(self.results):
                views = [m[s, :, : depths[s], : widths[s]] for m in self.matrices]
                (
                    result.times,
                    result.protocol_times,
                    result.corrections,
                    result.effective_corrections,
                    result.branches,
                ) = views

        # Epoch entries replace a trial's sweep in this list.
        self.sweeps = [
            _VectorSweep(sim, sim.graph, sim.fault_plan) for sim in sims
        ]
        self.pulse_invariant = all(sim.delay_model.pulse_invariant for sim in sims)
        # One read-only (S, L, W) rate plane per run when every provider
        # is static; a layer step takes a view of it.  It survives epoch
        # entries: rates are keyed by node id and the vertex set never
        # changes.
        self.rate_planes: Optional[np.ndarray] = None
        if all(not callable(sim._rates) for sim in sims):
            planes = np.ones((num_trials, num_layers, width))
            for s, sweep in enumerate(self.sweeps):
                plane = sweep.rate_plane
                planes[s, : plane.shape[0], : plane.shape[1]] = plane
            planes.setflags(write=False)
            self.rate_planes = planes

        # The stack's neighbor entry axis (see "One neighbor layout" in
        # the module docstring): the shared base graph's CSR on a uniform
        # stack, whose ``sources`` are its ``indices`` and all valid
        # (``valid`` None); on a padded stack a union axis with per-trial
        # ``(S, E)`` source and validity rows, written by set_sweep.
        # ``positions[s]`` maps trial s's CSR entries onto the axis (None:
        # they are the axis); vertex v has ``degree[v]`` entries.
        # ``active`` marks the real (non-padding) cells; None on uniform
        # stacks (all real).
        self.active = None
        self.positions: List[Optional[np.ndarray]] = [None] * num_trials
        if self.uniform:
            base = sims[0].graph.base
            self.indptr, self.sources = base.neighbor_csr()
            self.degree = self.sweeps[0].degree
            self.valid = None
            self.columns = base.neighbor_columns()
            self.static_eligible = np.stack(
                [sweep.static_eligible for sweep in self.sweeps]
            )
            self.faulty = np.stack([sweep.faulty for sweep in self.sweeps])
        else:
            # Vertex v gets the most copies it has in any trial's graph or
            # compiled epoch graph, so no epoch entry outgrows the axis.
            self.degree = degree = np.zeros(width, dtype=np.int64)
            for sim, schedule in zip(sims, self.schedules):
                graphs = [sim.graph] + (
                    [] if schedule is None else [epoch.graph for epoch in schedule.epochs]
                )
                for graph in graphs:
                    own = np.diff(graph.base.neighbor_csr()[0])
                    np.maximum(degree[: own.size], own, out=degree[: own.size])
            self.indptr = np.zeros(width + 1, dtype=np.int64)
            np.cumsum(degree, out=self.indptr[1:])
            self.sources = np.zeros((num_trials, self.indptr[-1]), dtype=np.int64)
            self.valid = np.zeros((num_trials, self.indptr[-1]), dtype=bool)
            self.static_eligible = np.zeros(
                (num_trials, num_layers - 1, width), dtype=bool
            )
            self.faulty = np.zeros((num_trials, num_layers, width), dtype=bool)
            for s, sweep in enumerate(self.sweeps):
                self.set_sweep(s, sweep)
            layer_index = np.arange(num_layers)
            self.active = (
                (layer_index[None, :, None] < self.depth_array[:, None, None])
                & (np.arange(width)[None, None, :] < np.array(widths)[:, None, None])
            )

        # Per-trial parameter/policy columns when trials disagree; the
        # shared objects otherwise (scalar broadcasting, old fast path).
        params0, policy0 = sims[0].params, sims[0].policy
        self.params = (
            params0
            if all(sim.params == params0 for sim in sims)
            else _StackedParams(sims)
        )
        self.policy = (
            policy0
            if all(sim.policy == policy0 for sim in sims)
            else _StackedPolicy(sims)
        )

        width_mask = (
            np.ones((num_trials, width), dtype=bool)
            if self.uniform
            else np.arange(width)[None, :] < np.array(widths)[:, None]
        )
        self.layer0_branches = np.where(
            width_mask, BRANCH_CODES["layer0"], BRANCH_CODES["none"]
        ).astype(np.int8)
        # Width-aware compaction bookkeeping: lane_needed[s, v] is True
        # while trial s can still use lane v.  Statically that is the
        # trial's width mask; campaign epoch entries clear lanes whose
        # vertex is absent for the whole remaining horizon (see
        # enter_epochs).  Uniform stacks have no width padding, so the
        # lane pass is skipped there outright (None).
        self.lane_needed = None if self.uniform else width_mask

        # Row and lane steps count live (trial, pulse) rows (see
        # layer_step); ``dead`` is the current block's (S, B) mask of
        # (trial, pulse) rows gone dead, None on fault-free stacks.
        self.row_steps = 0
        self.lane_steps = 0
        self.fallback_passes = 0
        self.dead: Optional[np.ndarray] = None
        # The faulty senders' send log (None until a fault table exists)
        # and the overlays of the current block's sends, keyed by the
        # layer that receives them (see record_fault_sends).
        self.fault_log: Optional[_FaultSendLog] = None
        self.sends: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.derive()

    def derive(self) -> None:
        """(Re)build what derives from the stacked tables: the per-layer
        fault flags, the empty delay and row caches, and the fault table.
        Runs once at the start and after every epoch entry that changed
        a table."""
        self.layer_has_fault = self.faulty.any(axis=(0, 2)).tolist()
        self.any_fault = bool(self.faulty.any())
        self.delay_cache: Dict[object, Tuple[np.ndarray, np.ndarray]] = {}
        self.row_cache: Dict[Tuple, Dict[str, object]] = {}
        self.faults = self.fault_table()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> Tuple[List[FastResult], Dict[str, object]]:
        """Advance every block; the results and the run's compaction stats."""
        times, protocol_times = self.matrices[:2]
        campaign = any(schedule is not None for schedule in self.schedules)
        for k0, k1 in self.blocks:
            if campaign:
                self.enter_epochs(k0)
            pulses = range(k0, k1)
            # The block's storage rows: its own pulses, or the head of
            # the ring.
            r0 = k0 if self.store_times else 0
            window = slice(r0, r0 + len(pulses))
            self.sends.clear()
            if self.faults is not None:
                self.faults.start_block(pulses)
            if not self.store_times:
                _clear_slot(self.matrices, window, 0)
            self.layer0(pulses, window)
            if self.faults is not None:
                self.record_fault_sends(k0, 0, protocol_times[:, window, 0, :])
            self.fold(k0, window, 0)
            # A (trial, pulse) can only go dead with faults -- a
            # fault-free trial's layers always pulse -- so the all-NaN
            # probe is skipped entirely on fault-free stacks.
            self.dead = (
                np.zeros((len(self.sims), len(pulses)), dtype=bool)
                if self.any_fault
                else None
            )
            for layer in range(1, self.num_layers):
                slot = _slot(times, layer)
                cells = _select_cells(
                    layer,
                    self.depth_array,
                    self.dead,
                    protocol_times[:, window, _slot(times, layer - 1), :],
                    self.lane_needed,
                )
                if not self.store_times and (
                    cells is None or not all(isinstance(c, slice) for c in cells)
                ):
                    # The step writes only part of the slot: every
                    # other cell must read NaN, not an older layer.
                    _clear_slot(self.matrices, window, slot)
                if cells is not None:
                    self.layer_step(layer, pulses, window, *cells)
                    if self.faults is not None:
                        self.record_fault_sends(
                            k0, layer, protocol_times[:, window, slot, :]
                        )
                self.fold(k0, window, layer)
        return self.finish(), self.compaction_stats()

    def finish(self) -> List[FastResult]:
        """Hand the run's campaign accounting, send log, folded statistics
        and (materialized runs) frozen shared block to its results."""
        results = self.results
        for s, schedule in enumerate(self.schedules):
            if schedule is not None:
                results[s].campaign = self.sims[s].campaign
                results[s].churn_stats = schedule.summary()
        self.stream.finalize()
        for s, result in enumerate(results):
            if self.fault_log is not None:
                result._fault_log = (self.fault_log, s)
                result._fault_sends = None
            result.streamed = self.stream
            result.streamed_row = s
        if not self.store_times:
            # The ring holds only the last block's last two layers --
            # meaningless as a result matrix, and never handed to the
            # results; the statistics live in ``streamed``.
            return results

        # Freeze the shared block and hand it to every result: stacked
        # results are immutable snapshots (a write through any window
        # would silently corrupt its siblings and any adopting
        # BatchResult), and the attached block is what lets a single-stack
        # BatchResult skip re-materializing (S, K, L_max, W_max) copies.
        times, _, corrections, effective, _ = self.matrices
        block = _StackBlock(times, corrections, effective, self.faulty)
        for array in self.matrices + (self.faulty,):
            array.flags.writeable = False
        for s, result in enumerate(results):
            for attr in ("times", "protocol_times", "corrections",
                         "effective_corrections", "branches"):
                getattr(result, attr).flags.writeable = False
            result.stack_block = block
            result.stack_row = s
        return results

    def compaction_stats(self) -> Dict[str, object]:
        """The run's :attr:`TrialStack.compaction_stats`."""
        padded_row_steps = (
            self.num_pulses * max(self.num_layers - 1, 0) * len(self.sims)
        )
        # Padded cost is every row step times the full padded width.
        padded_lane_steps = padded_row_steps * self.width
        return {
            "trials": len(self.sims),
            "num_layers": self.num_layers,
            "min_depth": int(min(self.depths)),
            "max_depth": int(max(self.depths)),
            "padded_row_steps": padded_row_steps,
            "active_row_steps": self.row_steps,
            "dropped_fraction": (
                1.0 - self.row_steps / padded_row_steps
                if padded_row_steps
                else 0.0
            ),
            "min_width": int(min(self.widths)),
            "max_width": int(max(self.widths)),
            "padded_lane_steps": padded_lane_steps,
            "active_lane_steps": self.lane_steps,
            "lane_dropped_fraction": (
                1.0 - self.lane_steps / padded_lane_steps
                if padded_lane_steps
                else 0.0
            ),
            # Pulse blocking (see _pulse_blocks): how many blocks the run
            # advanced and the most pulses one block held.
            "pulse_blocks": len(self.blocks),
            "block_pulses": max(k1 - k0 for k0, k1 in self.blocks),
            # Batched-fallback accounting: total kernel-rejected cells
            # resolved by the replay, their per-trial (pulse, layer)
            # batches, and the stack-wide resolver passes -- one per
            # (block, layer) step with any such cell, so never more than
            # the batches.  Zero on fault-free stacks.
            "fallback_cells": sum(r.fallback_cells for r in self.results),
            "fallback_batches": sum(r.fallback_batches for r in self.results),
            "fallback_passes": self.fallback_passes,
        }

    # ------------------------------------------------------------------
    # Gathers: the stacked inputs of one layer step
    # ------------------------------------------------------------------
    def delay_stack(
        self, layer: int, pulses: range, rows=_ALL, lanes=_ALL
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Own ``(S, P, W)`` and neighbor ``(S, P, E)`` delays.

        ``P`` is 1 when every model is pulse-invariant -- the arrays
        broadcast over the block's pulse axis, never repeated -- and the
        block's pulse count otherwise (one plane per pulse of
        ``pulses``).  Each sweep answers one block query per layer and
        block (a pulse-invariant model's from its own delay cache, one
        row broadcast over a mixed stack's pulses); the stacked copies
        are cached here per layer when every model is pulse-invariant,
        else per ``(layer, block)``.  Neighbor delays sit on the stack's
        entry axis: a uniform stack stacks its trials' CSR vectors, a padded
        one scatters each through its ``positions`` (padding entries
        stay 0 and are never valid).  On a compacted step, ``rows``
        selects the active trials and only their arrays are gathered
        (the cache key then carries the row set -- depth-driven sets are
        nested, so at most one entry per distinct depth survives), and
        ``lanes`` slices the active columns out of the row-compacted own
        delays (cached under the extended key); the entry axis is never
        compacted, the neighbor plan reads the entries it needs.  Trials
        without this layer (padded depth) contribute inert NaN/zero rows
        and are never queried, so delay models only ever see edges that
        exist in their own graph.
        """
        cache = self.delay_cache
        if self.pulse_invariant:
            key: object = layer
            pulses = pulses[:1]
        else:
            key = (layer, pulses.start, len(pulses))
        if not isinstance(rows, slice):
            key = (key, rows.tobytes())
        if not isinstance(lanes, slice):
            full_own, full_nb = self.delay_stack(layer, pulses, rows)
            key = (key, "lanes", lanes.tobytes())
            cached = cache.get(key)
            if cached is None:
                cached = (_read_only(full_own[:, :, lanes]), full_nb)
                cache[key] = cached
            return cached
        cached = cache.get(key)
        if cached is None:
            indices = np.arange(len(self.sweeps))[rows]
            own = np.full((len(indices), len(pulses), self.width), np.nan)
            nb = np.zeros(own.shape[:2] + self.sources.shape[-1:])
            for i, s in enumerate(indices):
                if layer >= self.depths[s]:
                    continue
                own_s, nb_s = self.sweeps[s].delay_arrays(layer, pulses)
                own[i, :, : own_s.shape[1]] = own_s
                entries = self.positions[s]
                nb[i][:, slice(None) if entries is None else entries] = nb_s
            cached = cache[key] = (_read_only(own), _read_only(nb))
        return cached

    def rate_stack(
        self, layer: int, pulses: range, rows=_ALL, lanes=_ALL
    ) -> np.ndarray:
        """Clock rates of the (active) trials' nodes, ``(S, P, W)``.

        Static rate providers read the run's ``(S, L, W)`` plane
        (:attr:`rate_planes`) with ``P = 1`` (broadcast over the block's
        pulses): a view of one layer, or a gather of the compacted rows.
        When some provider is callable, ``P`` is the block's pulse count
        and every trial is asked for the block, exactly as a per-trial
        run does.  Inert cells get rate 1 (never read through an eligible
        lane, but a finite value keeps the whole-plane arithmetic
        NaN-clean).  ``lanes`` slices the active columns out of the
        row-compacted array, mirroring :meth:`delay_stack`.
        """
        if self.rate_planes is not None:
            return _read_only(self.rate_planes[rows, layer, None][:, :, lanes])
        indices = np.arange(len(self.sweeps))[rows]
        stacked = np.ones((len(indices), len(pulses), self.width))
        for i, s in enumerate(indices):
            if layer >= self.depths[s]:
                continue
            block = self.sweeps[s].rate_array(layer, pulses)
            stacked[i, :, : block.shape[1]] = block
        return _read_only(stacked[:, :, lanes])

    def row_structs(self, rows, lanes) -> Dict[str, object]:
        """Kernel inputs of the ``rows x lanes`` plane, cached by both sets.

        Nothing here changes with the pulse: eligibility and fault masks
        are indexed per layer and broadcast over the block's pulses, and
        so does the neighbor plan (its per-trial gathers carry a
        length-1 pulse axis).

        Depth-driven active sets are nested (they only shrink as the
        layer index grows), so at most one entry per distinct depth is
        ever built; dead-trial sets add at most a handful more, and lane
        sets one entry per distinct (row set, lane set) pair.  The full
        plane (both :data:`_ALL`) is one more entry of views.

        The neighbor plan ``columns`` (see
        :func:`~repro.core.fast._neighbor_bounds`) of a uniform stack is
        its base graph's shared
        :meth:`~repro.topology.base_graph.BaseGraph.neighbor_columns`,
        whatever the rows; a padded stack's is built from its rows'
        ``sources`` and ``valid``
        (:func:`~repro.topology.base_graph.degree_columns`).
        With a lane set, the rows' ``sources``
        are re-indexed into the compact column space: ``lane_pos`` maps
        vertex ids to compacted columns, and entries pointing at dropped
        lanes (only ever invalid -- no valid entry of an active trial
        references a dropped lane) collapse to column 0 harmlessly.

        Besides the read-only kernel inputs, an entry carries ``index``
        (the ``(rows, lanes)`` subscripts of the shared blocks; the
        caller adds the pulse and layer subscripts), the original
        ``trials`` / ``vertices`` ids of its rows and columns
        (``vertices`` is None on the full width), and the ``sources`` /
        ``valid`` rows the fallback reads (1-D and None on a uniform
        stack).
        """
        key = (
            None if isinstance(rows, slice) else rows.tobytes(),
            None if isinstance(lanes, slice) else lanes.tobytes(),
        )
        cached = self.row_cache.get(key)
        if cached is None:
            sources, valid = self.sources, self.valid
            if valid is not None:
                sources, valid = sources[rows], valid[rows]
            sub_eligible = self.static_eligible[rows]
            sub_faulty = self.faulty[rows]
            sub_active = None if self.active is None else self.active[rows]
            index = (rows, _ALL)
            vertices = None
            if not isinstance(lanes, slice):
                lane_pos = np.zeros(self.width, dtype=np.int64)
                lane_pos[lanes] = np.arange(lanes.size, dtype=np.int64)
                sources = lane_pos[sources]
                sub_eligible = sub_eligible[:, :, lanes]
                sub_faulty = sub_faulty[:, :, lanes]
                sub_active = sub_active[:, :, lanes]
                index = (rows[:, None, None], lanes[None, None, :])
                vertices = lanes
            cached = {
                "columns": (
                    self.columns
                    if valid is None
                    else degree_columns(self.indptr, sources, valid, vertices)
                ),
                "sources": _read_only(sources),
                "valid": _read_only(valid),
                "static_eligible": _read_only(sub_eligible),
                "faulty": _read_only(sub_faulty),
                "active": _read_only(sub_active),
                "index": index,
                "trials": np.arange(len(self.sims))[rows],
                "vertices": vertices,
                "params": (
                    self.params.take(rows)
                    if isinstance(self.params, _StackedParams)
                    else self.params
                ),
                "policy": (
                    self.policy.take(rows)
                    if isinstance(self.policy, _StackedPolicy)
                    else self.policy
                ),
            }
            self.row_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Phases of a block
    # ------------------------------------------------------------------
    def enter_epochs(self, k: int) -> None:
        """Advance campaign trials into pulse ``k``'s epoch.

        For each trial whose compiled schedule crosses an epoch boundary
        at ``k``, takes the sweep of the epoch's own graph and fault plan
        (cached per epoch state, so revisited topologies rebuild
        nothing), frees the lanes of vertices absent for the rest of the
        horizon, and rewrites the trial's rows of the stacked tables
        (:meth:`set_sweep`).  Unchanged trials (and unchanged pulses)
        cost one integer comparison each, which is what makes quiet
        epochs free.  If any trial moved, everything derived from the
        tables is rebuilt (:meth:`derive`); the rate plane survives.
        """
        changed = False
        for s, schedule in enumerate(self.schedules):
            if schedule is None:
                continue
            index = schedule.epoch_index(k)
            if index == self.epoch_cursor[s]:
                continue
            self.epoch_cursor[s] = index
            epoch = schedule.epochs[index]
            sweep = self.epoch_sweeps[s].get(epoch.state_key)
            if sweep is None:
                sweep = _VectorSweep(self.sims[s], epoch.graph, epoch.fault_plan)
                self.epoch_sweeps[s][epoch.state_key] = sweep
            # A vertex absent from this epoch through the end of the
            # horizon can never act again: free its lane.  Absence only
            # accumulates toward the horizon tail, so freed lanes stay
            # freed at later boundaries.
            lane_row = np.arange(self.width) < self.widths[s]
            gone = frozenset.intersection(
                *(ep.absent for ep in schedule.epochs[index:])
            )
            if gone:
                lane_row[np.fromiter(gone, dtype=np.int64)] = False
            self.lane_needed[s] = lane_row
            self.set_sweep(s, sweep)
            changed = True
        if changed:
            self.derive()

    def set_sweep(self, s: int, sweep: _VectorSweep) -> None:
        """Make ``sweep`` trial ``s``'s and write its rows of the padded
        stack's source, validity, eligibility and fault tables -- zeroing
        stale entries first, since an epoch graph may drop edges."""
        self.sweeps[s] = sweep
        w = sweep.width
        depth = self.depths[s]
        positions = self.positions[s] = sweep.entries_on(self.indptr)
        self.sources[s] = 0
        self.valid[s] = False
        self.sources[s, positions] = sweep.indices
        self.valid[s, positions] = True
        self.static_eligible[s] = False
        self.static_eligible[s, : depth - 1, :w] = sweep.static_eligible
        self.faulty[s] = False
        self.faulty[s, :depth, :w] = sweep.faulty

    def layer0(self, pulses: range, window: slice) -> None:
        """Write layer 0's planes of the block's ``pulses`` for every trial.

        One :func:`~repro.core.layer0.stacked_pulse_times` fill of the
        block writes the protocol times straight into the window's
        layer-0 rows (``window`` is the block's storage rows: its
        pulses, or the head of a streamed run's ring).  Faulty layer-0
        nodes get no ``times``; their protocol times are the correct
        times their recorded sends are offset from.
        """
        times, protocol_times, _, _, branches = self.matrices
        rows = stacked_pulse_times(
            *self.layer0_sources, pulses, out=protocol_times[:, window, 0, :]
        )
        if branches is not None:
            branches[:, window, 0, :] = self.layer0_branches[:, None, :]
        times[:, window, 0, :] = np.where(self.faulty[:, 0, None, :], np.nan, rows)

    def fold(self, k0: int, window: slice, layer: int) -> None:
        """Fold ``layer`` of the block starting at pulse ``k0`` into the
        run's statistics: its slot's times and corrections, plus the
        times of layer ``layer - 1`` (see
        :meth:`~repro.analysis.streaming.StreamedStats.update`)."""
        times, _, corrections, _, _ = self.matrices
        slot = _slot(times, layer)
        self.stream.update(
            k0,
            layer,
            times[:, window, slot],
            corrections[:, window, slot],
            times[:, window, _slot(times, layer - 1)] if layer else None,
        )

    def fault_table(self) -> Optional[_FaultTable]:
        """The stack's fault table, or None when no trial has a faulty
        sender; starts the run's send log on the first table."""
        if not self.any_fault or all(
            sweep.fault_rows is None for sweep in self.sweeps
        ):
            return None
        if self.fault_log is None:
            self.fault_log = _FaultSendLog()
        return _FaultTable(
            self.sims, self.sweeps, self.width, self.positions, self.sources.shape[-1]
        )

    def record_fault_sends(self, k0: int, layer: int, planes: np.ndarray) -> None:
        """Record the block's sends of ``layer``'s faulty nodes at once.

        ``planes`` is the layer's ``(S, B, W_max)`` protocol-time planes
        of the block starting at pulse ``k0``: a faulty node that pulsed
        sends at its protocol (correct) time plus its offsets, ``ct +
        offsets`` for each (pulse, row) of the ``(B, R)`` correct times
        and the block's ``(B, R, M)`` offsets.  The sends go to the run's
        send log (the source of every result's ``fault_sends``; one
        chunk a call) and into the overlay of ``layer + 1``: an ``(own,
        nb)`` pair with one plane per pulse of the block, each laid out
        like that layer's delay arrays -- ``(B, S, W_max)`` own copies
        plus ``(B, S, E)`` neighbor copies on the entry axis.  A silent
        send is ``+inf``, and
        so is every slot no send was recorded for.  The fallback reads a
        faulty predecessor's send from the overlay at the cell's pulse
        and the entry where it reads that edge's delay.
        """
        table = self.faults
        at = table.layer_rows.get(layer)
        if at is None:
            return
        rows, trials, vertices = at
        correct = planes[trials, :, vertices].T
        pulse, row = np.nonzero(~np.isnan(correct))
        if not pulse.size:
            return
        rows = rows[row]
        sends = correct[pulse, row, None] + table.block_offsets[pulse, rows]
        overlay = self.sends.get(layer + 1)
        if overlay is None:
            count = planes.shape[1]
            overlay = (
                np.full((count, len(self.sims), self.width), np.inf),
                np.full((count,) + table.nb_shape, np.inf),
            )
            self.sends[layer + 1] = overlay
        own, nb = overlay
        np.put(own, pulse * own[0].size + table.own_slot[rows], sends[:, 0])
        valid = table.valid[rows, 1:]
        np.put(
            nb,
            (pulse[:, None] * nb[0].size + table.nb_slot[rows])[valid],
            sends[:, 1:][valid],
        )
        self.fault_log.chunks.append((table, rows, k0 + pulse, sends))

    def layer_step(
        self, layer: int, pulses: range, window: slice, rows, lanes
    ) -> None:
        """Advance ``layer`` for every pulse of the block on the selected plane.

        ``rows`` and ``lanes`` are the plane :func:`_select_cells` picked
        (each :data:`_ALL` on the full plane); the step gathers its
        read-only inputs for them (:meth:`row_structs`,
        :meth:`delay_stack`, :meth:`rate_stack`) and runs the kernel
        over the ``(S, B, W)`` plane.  ``window`` is the
        block's storage rows (its pulses, or the head of the ring).

        Results scatter back through the plane's subscripts, ineligible
        cells as the padding (``NaN``/``"none"``) the block starts with,
        so the output is bitwise a full-plane step's: cells outside the
        plane are never eligible and their replays record nothing.
        ``structs["active"]`` (None on uniform stacks) masks the padding
        inside the plane, and the live mask the dead (trial, pulse)
        rows; every other rejected cell goes through one
        :meth:`fallback` pass.
        """
        times, protocol_times, corrections, effective, branches_out = self.matrices
        # The (rows, B) mask of the (trial, pulse) rows not gone dead,
        # or None when all are live.
        live = None if self.dead is None else ~self.dead[rows]
        if live is not None and live.all():
            live = None
        # Row and lane steps count live (trial, pulse) rows and their
        # cells: a pulse's cells are its live rows times the lanes those
        # rows need -- what a one-pulse step would have run -- so both
        # counts are independent of the block size.
        if live is None:
            row_steps = len(pulses) * (
                len(self.sims) if isinstance(rows, slice) else rows.size
            )
        else:
            row_steps = int(live.sum())
        self.row_steps += row_steps
        if self.lane_needed is None or live is None:
            # Every pulse's live rows need exactly the step's lanes.
            self.lane_steps += row_steps * (
                self.width if isinstance(lanes, slice) else lanes.size
            )
        else:
            used = (self.lane_needed[rows][:, None, :] & live[:, :, None]).any(axis=0)
            self.lane_steps += int(used.sum(axis=1) @ live.sum(axis=0))

        structs = self.row_structs(rows, lanes)
        delays = self.delay_stack(layer, pulses, rows, lanes)
        rate = self.rate_stack(layer, pulses, rows, lanes)
        sent = self.sends.pop(layer, None)
        # One subscript of the 4-D blocks per layer: with an index array
        # on the rows, the rows axis leads, then the pulses and lanes.
        ri, ci = structs["index"]
        pi = (
            window
            if isinstance(ci, slice)
            else np.arange(window.start, window.stop)[None, :, None]
        )
        index = (ri, pi, _slot(times, layer), ci)
        # NaN = missing; read-only, as are the other kernel inputs.
        prev = _read_only(times[ri, pi, _slot(times, layer - 1), ci])
        own_delay, nb_delay = delays
        static_eligible = structs["static_eligible"][:, layer - 1, None, :]
        simplified = self.sims[0].algorithm == "simplified"
        planes = self.store_times  # a streamed run keeps neither codes nor effective
        eligible, correction, branches, pulse_time, eff = _layer_step_kernel(
            prev, own_delay, nb_delay, rate, structs["columns"], static_eligible,
            structs["params"], structs["policy"], simplified, planes,
        )
        eligible = _kernel_cells(eligible)

        if not self.layer_has_fault[layer] and eligible.all():
            # Common case (no trial has a fault on this layer, every cell
            # on the fast path): plain assignments, no selects.
            corrections[index] = correction
            if planes:
                branches_out[index] = branches
                effective[index] = eff
            protocol_times[index] = pulse_time
            times[index] = pulse_time
            return

        faulty_here = structs["faulty"][:, layer, None, :]
        corrections[index] = np.where(eligible, correction, np.nan)
        if planes:
            branches_out[index] = np.where(eligible, branches, BRANCH_CODES["none"])
            effective[index] = np.where(eligible, eff, np.nan)
        protocol_times[index] = np.where(eligible, pulse_time, np.nan)
        times[index] = np.where(eligible & ~faulty_here, pulse_time, np.nan)
        fallback = ~eligible
        active = structs["active"]
        if active is not None:
            fallback &= active[:, layer, None, :]
        if live is not None:
            fallback &= live[:, :, None]
        if fallback.any():
            self.fallback(
                structs, prev, delays, rate, sent,
                np.nonzero(fallback), layer, window.start,
            )

    def fallback(
        self,
        structs: Dict[str, object],
        prev: np.ndarray,
        delays: Tuple[np.ndarray, np.ndarray],
        rate: np.ndarray,
        sent: Optional[Tuple[np.ndarray, np.ndarray]],
        cells: Tuple[np.ndarray, np.ndarray, np.ndarray],
        layer: int,
        rk: int,
    ) -> None:
        """Resolve every kernel-rejected cell of one block step in one pass.

        ``cells`` are the ``(row, pulse, column)`` positions of the
        rejected cells in the ``(S, B, W)`` plane
        :meth:`layer_step` ran on, whose kernel inputs ``structs``,
        ``prev`` send times, ``delays`` and ``rate`` it passes on; ``rk``
        is the storage row of the block's first pulse.  Each cell's
        arrival events are
        gathered from those arrays at the cell's pulse (pulse 0 of an
        array whose pulse axis has length 1): the own copy at the cell's
        own column, the neighbor copies at the cell's entries
        ``indptr[v] + j`` of the stack's axis, from the plane's
        ``sources`` (valid where ``valid``).  A faulty predecessor's send
        comes from ``sent``, the overlay its recorded sends were written
        to (:meth:`record_fault_sends`; None when no faulty predecessor
        sent anything), and a missing message is ``+inf``.  Parameters
        are each cell's trial's own.
        :func:`~repro.core.fast._fallback_replay` then replays the
        cells, in one call for all cells of up to 16 neighbor copies and
        one per doubling of the degree above (a cell's outcome does not
        depend on the cells it shares a call with, so a hub's wide event
        rows stay its own), and the outcomes scatter back to the cells'
        trials, pulses and vertices.  A faulty cell that pulses has a protocol
        time and no ``times`` entry; the run records its sends from the
        protocol plane after the step (:meth:`record_fault_sends`).
        """
        times, protocol_times, corrections, effective, branches = self.matrices
        si, bi, vi = cells
        vertices = vi if structs["vertices"] is None else structs["vertices"][vi]
        start = self.indptr[vertices]
        degree = self.degree[vertices]
        # One replay per degree class -- up to 16 neighbor copies, then
        # per doubling -- so a hub's copies never widen every other
        # cell's event row: the pass stays O(cells + entries).  A part
        # is a slice of the cells and its widest degree.
        parts = [(slice(None), int(degree.max()))]
        if parts[0][1] > 16:
            order = np.argsort(degree, kind="stable")
            si, bi, vi, vertices, start, degree = (
                array[order] for array in (si, bi, vi, vertices, start, degree)
            )
            kind = np.frexp(np.maximum(degree, 16))[1]
            cuts = [0, *(np.flatnonzero(np.diff(kind)) + 1), kind.size]
            parts = [(slice(a, b), int(degree[b - 1])) for a, b in zip(cuts, cuts[1:])]
        trials = structs["trials"][si]
        own_delay, nb_delay = delays
        prev_faulty = structs["faulty"][:, layer - 1, :]
        simplified = self.sims[0].algorithm == "simplified"

        def at(array: np.ndarray, pulses: np.ndarray):
            # The cells' pulses in ``array``, which broadcasts a length-1
            # pulse axis over the block.
            return pulses if array.shape[1] > 1 else 0

        def replay(part: slice, width: int) -> Tuple[np.ndarray, ...]:
            # The part's cells' arrival events, then one batched replay.
            s, b, v, t = si[part], bi[part], vi[part], trials[part]
            # Neighbor slots of each cell: entry on the axis, source
            # column in the plane, validity, delay, and overlay index.
            pulse, row = b[:, None], s[:, None]
            offsets = np.arange(width)
            valid = offsets < degree[part, None]
            entry = np.minimum(start[part, None] + offsets, self.sources.shape[-1] - 1)
            if structs["valid"] is None:
                source = structs["sources"][entry]
            else:
                source = structs["sources"][row, entry]
                valid &= structs["valid"][row, entry]
            nb_d = nb_delay[row, at(nb_delay, pulse), entry]
            own_sent = nb_sent = np.inf  # no faulty predecessor sent anything
            if sent is not None:
                own_sent = sent[0][b, t, vertices[part]]
                nb_sent = sent[1][pulse, t[:, None], entry]
            own_send = np.where(prev_faulty[s, v], own_sent, prev[s, b, v])
            nb_send = np.where(
                prev_faulty[row, source], nb_sent, prev[row, pulse, source]
            )
            ev_time = np.empty((s.size, 1 + valid.shape[1]))
            ev_time[:, 0] = own_send + own_delay[s, at(own_delay, b), v]
            ev_time[:, 1:] = np.where(valid, nb_send + nb_d, np.inf)
            # A correct predecessor that never pulsed sent nothing.
            ev_time[np.isnan(ev_time)] = np.inf
            params, policy = self.params, self.policy
            if isinstance(params, _StackedParams):
                params = params.take(t, flat=True)
            if isinstance(policy, _StackedPolicy):
                policy = policy.take(t, flat=True)
            return _fallback_replay(
                ev_time, valid.sum(axis=1), rate[s, at(rate, b), v],
                params, policy, simplified,
            )

        outcomes = [replay(*part) for part in parts]
        pulses, correction, branch_codes, pulse_time, eff, h_own = (
            outcomes[0] if len(parts) == 1 else map(np.concatenate, zip(*outcomes))
        )

        rows, slot = rk + bi, _slot(times, layer)
        corrections[trials, rows, slot, vertices] = correction
        if branches is not None:
            branches[trials, rows, slot, vertices] = branch_codes
            eff_ok = pulses & np.isfinite(h_own)
            effective[trials[eff_ok], rows[eff_ok], slot, vertices[eff_ok]] = eff[eff_ok]
        protocol_times[
            trials[pulses], rows[pulses], slot, vertices[pulses]
        ] = pulse_time[pulses]
        faulty = structs["faulty"][si, layer, vi]
        ok = pulses & ~faulty
        times[trials[ok], rows[ok], slot, vertices[ok]] = pulse_time[ok]

        # Per-trial accounting keeps its meaning: a trial's batch is one
        # (pulse, layer) step with any rejected cell of that trial.
        self.fallback_passes += 1
        steps = np.zeros((len(self.sims), prev.shape[1]), dtype=bool)
        steps[trials, bi] = True
        batches = steps.sum(axis=1)
        counts = np.bincount(trials)
        for s in np.flatnonzero(counts):
            self.results[s].fallback_batches += int(batches[s])
            self.results[s].fallback_cells += int(counts[s])
