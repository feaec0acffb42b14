"""Streamed statistics: fold the skew and correction statistics online.

The kernels of :mod:`repro.core.fast` / :mod:`repro.core.fast_batch`
advance one ``(S, B, W)`` layer plane of a pulse block at a time.
:class:`StreamedStats` consumes each layer step's planes *once the
kernel has written them* and folds the paper's four statistics --
local, inter-layer and global skew plus the correction summary -- into
O(S, L) accumulators.  Every :class:`~repro.core.fast_batch.TrialStack`
run folds, and every :class:`~repro.experiments.batch.BatchResult`
statistic is read from the folds: a sweep with ``store_times=False``
never allocates the ``(S, K, L, W)`` pulse-time block at all, and a
materialized sweep pays for no second reduction.  The array reducers of
:mod:`repro.analysis.skew` and :func:`fold_correction_planes` stay as
the independent reference the tests hold the folds to.

Design constraints, all load-bearing:

* **Bitwise parity.**  Every skew accumulator is a pure ``max``-fold.
  Max is associative and exact in floating point, so a streamed
  statistic is *bitwise identical* to the corresponding array reducer
  applied to the materialized block (the differential suite pins this).
  The one non-max statistic -- the correction mean -- left-folds
  per-``(pulse, layer)`` partial sums in pulse-major, layer-minor
  order: the fold keeps a block's partials in an ``(S, B, L)`` buffer
  and adds them in that order once the block's last layer is folded,
  and :func:`fold_correction_planes` adds the same partials of
  materialized blocks in the same order, so both paths agree bitwise
  there too.
* **NaN semantics.**  NaN is the simulator's "never pulsed / faulty /
  padding" marker; the folds skip it (``np.fmax`` / ``np.fmin``
  ignore NaN without warnings) and yield exactly what
  :func:`repro.analysis.skew.masked_max` yields.  Padding cells of a heterogeneous stack are NaN
  and therefore invisible here, as everywhere else.
* **Unwritten cells are NaN.**  A materialized stack's cells start as
  NaN and each is written once.  A streamed stack keeps each result
  matrix as a two-layer ring of ``(S, B, W)`` planes -- the previous
  and the current layer of one pulse block, see
  :mod:`repro.core.fast_batch` -- and NaN-fills a layer's slot before
  a step that writes only part of it.  Either way every cell of the planes
  :meth:`StreamedStats.update` reads that the step did not write --
  rows dropped by depth compaction, dead rows, lanes outside the
  compacted set -- is NaN.  The fold needs no record of what the
  compacted kernel skipped: a NaN cell leaves every max accumulator
  untouched and adds count 0 and ``+0.0`` to a
  non-negative correction total, which leaves it bitwise unchanged.
* **Picklable.**  Accumulators survive the worker pool: each pooled
  shard's results carry their own stack group's stream, so sharded
  sweeps need no merge.

The inter-layer skew compares pulse ``k`` on layer ``l`` against pulse
``k - 1`` on layer ``l + 1`` -- a *cross-pulse* comparison.  Inside a
block the fold reads pulse ``k - 1`` from the same plane, one pulse
back; for the block's first pulse it reads the previous block's last
pulse from one ``(S, L, W)`` buffer, the O(S, W)-per-layer memory floor
of the statistic itself.  ``finalize`` releases it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.layered import LayeredGraph

__all__ = [
    "StreamGroup",
    "StreamLayout",
    "StreamedStats",
    "fold_correction_planes",
]


class StreamGroup:
    """One base-graph group of a stack: a graph plus trial rows.

    The skew folds gather along base-graph edges, so trials only share a
    sweep when they share the base graph's adjacency; at each layer the
    sweep covers the group's trials deeper than it.
    """

    __slots__ = ("graph", "indices", "depths", "rows", "_bounds", "_pairs")

    def __init__(
        self,
        graph: LayeredGraph,
        indices: np.ndarray,
        depths: np.ndarray,
        whole: bool = False,
    ) -> None:
        self.graph = graph
        self.indices = np.asarray(indices, dtype=np.int64)
        self.depths = np.asarray(depths, dtype=np.int64)
        #: The group's subscript of the trial axis: the whole axis when
        #: the group holds every trial (no gather), else ``indices``.
        self.rows = slice(None) if whole else self.indices
        self._bounds = (int(self.depths.min()), int(self.depths.max()))
        self._pairs = None

    @property
    def width(self) -> int:
        return self.graph.width

    def rows_at(self, layer: int):
        """The trial-axis subscript of the group's trials deeper than
        ``layer``, or None when there are none."""
        shallowest, deepest = self._bounds
        if layer < shallowest:
            return self.rows
        if layer >= deepest:
            return None
        return self.indices[self.depths > layer]

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Base-graph edge endpoints (cached on the base graph)."""
        return self.graph.base.edge_index_arrays()

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Vertex pairs of the inter-layer skew: each vertex with itself,
        then every edge in both directions."""
        if self._pairs is None:
            left, right = self.edges()
            vertices = np.arange(self.width)
            self._pairs = (
                np.concatenate([vertices, left, right]),
                np.concatenate([vertices, right, left]),
            )
        return self._pairs


class StreamLayout:
    """Shapes and geometry grouping of one streamed run."""

    def __init__(
        self, graphs: Sequence[LayeredGraph], num_pulses: int
    ) -> None:
        self.graphs = list(graphs)
        if not self.graphs:
            raise ValueError("need at least one trial graph")
        self.num_pulses = int(num_pulses)
        self.num_trials = len(self.graphs)
        self.depths = np.array(
            [g.num_layers for g in self.graphs], dtype=np.int64
        )
        self.widths = np.array([g.width for g in self.graphs], dtype=np.int64)
        self.num_layers = int(self.depths.max())
        self.width = int(self.widths.max())
        grouped: Dict[Tuple, List[int]] = {}
        group_graphs: Dict[Tuple, LayeredGraph] = {}
        for i, graph in enumerate(self.graphs):
            key = graph.base.adjacency
            grouped.setdefault(key, []).append(i)
            group_graphs.setdefault(key, graph)
        self.groups = [
            StreamGroup(
                group_graphs[key],
                indices,
                self.depths[indices],
                whole=len(grouped) == 1,
            )
            for key, indices in grouped.items()
        ]

    @classmethod
    def from_sims(cls, sims, num_pulses: int) -> "StreamLayout":
        """Layout of a :class:`FastSimulation` list (one trial each)."""
        return cls([sim.graph for sim in sims], num_pulses)


def _correction_rows(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``|C|`` row sums of a corrections block, plus per-trial count and max.

    The row sums run over the last (vertex) axis of ``block``, one per
    finite-or-not row; the count of finite cells and the largest ``|C|``
    are taken per leading (trial) index.  Both
    :meth:`StreamedStats.update` and :func:`fold_correction_planes` take
    their row sums here, so each row is summed with the same (pairwise)
    association.
    """
    finite = np.isfinite(block)
    magnitudes = np.where(finite, np.abs(block), 0.0)
    trials = len(block)
    return (
        magnitudes.sum(axis=-1),
        finite.reshape(trials, -1).sum(axis=-1),
        magnitudes.reshape(trials, -1).max(axis=-1, initial=0.0),
    )


def _left_fold(totals: np.ndarray, partials: np.ndarray) -> np.ndarray:
    """``totals`` plus each trial's ``partials`` row, added left to right
    (``np.add.accumulate`` is sequential) -- the one association of the
    correction totals."""
    return np.add.accumulate(np.column_stack([totals, partials]), axis=1)[:, -1]


class StreamedStats:
    """The four streamed statistics of one run (one stack group / trial).

    Per-layer running maxima of the local skew ``L_l``, the inter-layer
    skew ``L_{l,l+1}`` and the global skew (largest same-pulse spread),
    plus the correction count / sum / max ``|C|``, each bitwise equal to
    its array reducer on the materialized block
    (:func:`~repro.analysis.skew.local_skew_layers`,
    :func:`~repro.analysis.skew.inter_layer_skew_layers`,
    :func:`~repro.analysis.skew.global_skew_layers`,
    :func:`fold_correction_planes`).

    Lifecycle: :meth:`update` once per (pulse block, layer) step --
    blocks in pulse order, layers ``0 .. L - 1`` in order inside a block
    -- with the layer's ``(S, B, W)`` planes, every cell the step did not
    write NaN; then :meth:`finalize` once the run ends.

    Attached to every :class:`~repro.core.fast.FastResult` of a trial
    stack as ``result.streamed`` with the trial's row in
    ``result.streamed_row``
    -- one shared object per stack group, which pickling deduplicates
    within a shard payload, so a pooled shard carries it at no
    per-trial cost (unlike the stripped ``_StackBlock``).
    """

    def __init__(self, layout: StreamLayout) -> None:
        self.layout = layout
        trials, layers = layout.num_trials, layout.num_layers
        self._max = {
            "local": np.full((trials, layers), -np.inf),
            "inter_layer": np.full((trials, max(layers - 1, 0)), -np.inf),
            "global": np.full((trials, layers), -np.inf),
        }
        self._counts = np.zeros(trials, dtype=np.int64)
        self._totals = np.zeros(trials)
        self._max_abs = np.zeros(trials)
        # The last pulse of the previous block, per layer (inter-layer
        # pairs of a block's first pulse), and the (S, B, L) correction
        # partials of the current block (see update).
        self._prev: Optional[np.ndarray] = np.full(
            (trials, layers, layout.width), np.nan
        )
        self._partials: Optional[np.ndarray] = np.zeros((trials, 1, layers))

    @staticmethod
    def of(result) -> "StreamedStats":
        """A block-less result's streamed statistics, or raise."""
        if result.streamed is None:
            raise ValueError(
                "result holds no pulse-time matrices and no streamed "
                "statistics; run it with store_times=True"
            )
        return result.streamed

    def _fold(self, name: str, rows, column: int, diffs: np.ndarray) -> None:
        """Fold the per-trial max of non-negative ``diffs`` (NaN skipped)
        into one accumulator column.

        Reduces every axis but the leading (trial) one, as one flat last
        axis (a multi-axis reduce is several times slower).  ``np.fmax``
        ignores NaN and max is exact, so the folded maxima reproduce
        :func:`repro.analysis.skew.masked_max`'s joint max bit for bit; a
        trial with no valid entry stays ``-inf``, which no valid
        (non-negative) entry can be -- so ``> -inf`` is the validity mask.
        """
        largest = np.fmax.reduce(
            diffs.reshape(len(diffs), -1), axis=-1, initial=-np.inf
        )
        acc = self._max[name]
        acc[rows, column] = np.maximum(acc[rows, column], largest)

    def update(
        self,
        pulse: int,
        layer: int,
        times: np.ndarray,
        corrections: np.ndarray,
        upper: Optional[np.ndarray] = None,
    ) -> None:
        """Fold one block step: ``layer`` of the pulses from ``pulse`` on.

        ``times``/``corrections`` are the layer's ``(S, B, W)`` planes of
        a block of ``B`` pulses starting at ``pulse``, and ``upper`` is
        the block's ``(S, B, W)`` times plane of layer ``layer - 1``
        (unused at layer 0).  They are the kernel's live ring slots, read
        only; every cell the step did not write must be NaN.  The call
        for the last layer closes the block: its correction partials are
        added to the totals, pulse by pulse.
        """
        count = times.shape[1]
        if self._partials.shape[1] < count:
            self._partials = np.zeros(
                (self.layout.num_trials, count, self.layout.num_layers)
            )
        for group in self.layout.groups:
            rows = group.rows_at(layer)
            if rows is None:
                continue
            width = group.width
            plane = times[rows, :, :width]
            left, right = group.edges()
            diffs = plane[..., left] - plane[..., right]
            self._fold("local", rows, layer, np.abs(diffs, out=diffs))
            if layer >= 1:
                # Pulse k of layer l - 1 against pulse k - 1 of layer l:
                # one pulse back in this plane or, for the block's first
                # pulse, the previous block's last (NaN before pulse 0).
                lower = np.concatenate(
                    (self._prev[rows, layer, None, :width], plane[:, :-1]),
                    axis=1,
                )
                above, below = group.pairs()
                diffs = upper[rows, :, :width][..., above] - lower[..., below]
                self._fold("inter_layer", rows, layer - 1, np.abs(diffs, out=diffs))
            # A pulse with no valid cell spreads -inf - inf = -inf.
            self._fold(
                "global",
                rows,
                layer,
                np.fmax.reduce(plane, axis=-1, initial=-np.inf)
                - np.fmin.reduce(plane, axis=-1, initial=np.inf),
            )
            # Slice to the group's true width: summing a padded W_max row
            # changes numpy's pairwise-sum association, so the mean would
            # drift ULPs away from a per-trial fold of the same data.
            sums, counts, max_abs = _correction_rows(corrections[rows, :, :width])
            self._partials[rows, :count, layer] = sums
            self._counts[rows] += counts
            self._max_abs[rows] = np.maximum(self._max_abs[rows], max_abs)
        self._prev[:, layer] = times[:, -1]
        if layer == self.layout.num_layers - 1:
            partials = self._partials[:, :count]
            self._totals = _left_fold(
                self._totals, partials.reshape(len(partials), -1)
            )
            partials[...] = 0.0

    def finalize(self) -> None:
        """Release the fold's previous-pulse and partials buffers."""
        self._prev = None
        self._partials = None

    def trial_values(
        self, name: str, row: int, empty: float = 0.0
    ) -> np.ndarray:
        """One trial's per-layer statistic over its *own* layer count.

        ``name`` is ``"local"``, ``"inter_layer"`` or ``"global"``;
        ``empty`` fills layers that had nothing to fold.
        """
        columns = int(self.layout.depths[row])
        if name == "inter_layer":
            columns = max(columns - 1, 0)
        values = self._max[name][row, :columns]
        return np.where(values > -np.inf, values, empty)

    def trial_stats(self, row: int) -> Dict[str, float]:
        """One trial's correction count / mean ``|C|`` / max ``|C|``."""
        count = int(self._counts[row])
        mean = self._totals[row] / max(count, 1) if count > 0 else 0.0
        return {
            "max_abs": float(self._max_abs[row]),
            "mean_abs": float(mean),
            "num_corrections": count,
        }


def fold_correction_planes(corrections: np.ndarray) -> Dict[str, np.ndarray]:
    """Correction stats of an ``(S, K, L, W)`` block, in *stream order*.

    Adds the per-``(pulse, layer)`` row sums pulse by pulse, layer by
    layer, through the helpers :meth:`StreamedStats.update` uses (same
    row sums, same association), so materialized and streamed
    correction means agree bitwise -- a flat ``.sum()`` over the block
    would not, since float addition is order-sensitive.
    """
    corrections = np.asarray(corrections, dtype=float)
    trials = corrections.shape[0]
    counts = np.zeros(trials, dtype=np.int64)
    totals = np.zeros(trials)
    max_abs = np.zeros(trials)
    for pulse in range(corrections.shape[1]):
        sums, count, largest = _correction_rows(corrections[:, pulse])
        counts = counts + count
        totals = _left_fold(totals, sums)
        max_abs = np.maximum(max_abs, largest)
    return {
        "max_abs": max_abs,
        "mean_abs": np.where(
            counts > 0, totals / np.maximum(counts, 1), 0.0
        ),
        "num_corrections": counts,
    }
