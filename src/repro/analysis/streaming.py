"""Streamed statistics: fold the skew and correction statistics online.

The kernels of :mod:`repro.core.fast` / :mod:`repro.core.fast_batch`
advance one ``(S, B, W)`` layer plane of a pulse block at a time, but
until now every trial's full ``(K, L, W)`` pulse-time block stayed in
memory so the array
reducers of :mod:`repro.analysis.skew` could run afterwards -- stacked,
an ``(S, K, L_max, W_max)`` array that caps sweep size long before the
kernel does.  This module is the incremental counterpart:
:class:`StreamedStats` consumes each pulse's ``(S, L, W)`` window *once
the kernel has written it* and folds the paper's four statistics --
local, inter-layer and global skew plus the correction summary -- into
O(S, L) accumulators, so a sweep with ``store_times=False`` never
allocates the pulse-time block at all.

Design constraints, all load-bearing:

* **Bitwise parity.**  Every skew accumulator is a pure ``max``-fold.
  Max is associative and exact in floating point, so a streamed
  statistic is *bitwise identical* to the corresponding array reducer
  applied to the materialized block (the differential suite pins this).
  The one non-max statistic -- the correction mean -- left-folds
  per-``(pulse, layer)`` partial sums in pulse-major, layer-minor
  order, and :func:`fold_correction_planes` runs the *same* per-pulse
  helper over materialized blocks so both paths agree bitwise there too.
* **NaN semantics.**  NaN is the simulator's "never pulsed / faulty /
  padding" marker; the folds skip it (``np.fmax`` / ``np.fmin``
  ignore NaN without warnings) and yield exactly what
  :func:`repro.analysis.skew.masked_max` yields.  Padding cells of a heterogeneous stack are NaN
  and therefore invisible here, as everywhere else.
* **Unwritten cells are NaN.**  The stack's rolling window holds one
  pulse block (``(S, B, L, W)``, see :mod:`repro.core.fast_batch`) and
  is NaN-filled at the start of every block, so every cell of a pulse's
  ``(S, L, W)`` slice that the pulse did not write -- rows dropped by
  depth compaction, dead rows, lanes outside the compacted set -- is
  NaN when :meth:`StreamedStats.update` reads it, once per pulse, in
  pulse order.  The fold needs no record of what the compacted kernel skipped:
  a NaN cell leaves every max/valid accumulator untouched and adds
  count 0 and ``+0.0`` to a non-negative correction total, which leaves
  it bitwise unchanged.
* **Picklable + mergeable.**  Accumulators survive the process executor
  (:meth:`StreamedStats.merge` concatenates shards along the trial
  axis), so ``executor="process"`` sweeps stream too.

The inter-layer skew compares pulse ``k+1`` on layer ``l`` against pulse
``k`` on layer ``l+1`` -- a *cross-pulse* comparison -- so the fold
keeps one ``(S, L, W)`` previous-pulse buffer, the O(S, W)-per-layer
memory floor of the statistic itself; ``finalize`` releases it.
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
    """One geometry group of a streamed batch: a graph plus trial rows.

    Mirrors :meth:`BatchResult._geometry_groups`: the skew folds gather
    along base-graph edges, so trials only share a sweep when they share
    the ``(num_layers, adjacency)`` geometry.
    """

    __slots__ = ("graph", "indices")

    def __init__(self, graph: LayeredGraph, indices: np.ndarray) -> None:
        self.graph = graph
        self.indices = np.asarray(indices, dtype=np.int64)

    @property
    def depth(self) -> int:
        return self.graph.num_layers

    @property
    def width(self) -> int:
        return self.graph.width

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Base-graph edge endpoints (cached on the base graph)."""
        return self.graph.base.edge_index_arrays()


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
            key = (graph.num_layers, graph.base.adjacency)
            grouped.setdefault(key, []).append(i)
            group_graphs.setdefault(key, graph)
        self.groups = [
            StreamGroup(group_graphs[key], indices)
            for key, indices in grouped.items()
        ]

    @classmethod
    def from_sims(cls, sims, num_pulses: int) -> "StreamLayout":
        """Layout of a :class:`FastSimulation` list (one trial each)."""
        return cls([sim.graph for sim in sims], num_pulses)


def _masked_plane_max(diffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Last-axis max of non-negative ``diffs``, NaN skipped: ``(values, any_valid)``.

    ``np.fmax`` ignores NaN and max is exact, so folding these maxima
    reproduces :func:`repro.analysis.skew.masked_max`'s joint max bit for
    bit; a row with no valid entry stays ``-inf``, which no valid
    (non-negative) entry can be.
    """
    values = np.fmax.reduce(diffs, axis=-1, initial=-np.inf)
    return values, values > -np.inf


def _fold_corrections(
    block: np.ndarray,
    counts: np.ndarray,
    totals: np.ndarray,
    max_abs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold one pulse's ``(n, L, W)`` corrections into ``(count, sum, max)``.

    Sums ``|C|`` over each ``(trial, layer)`` row's finite cells, then
    left-folds those partials in layer order onto ``totals`` -- the
    association both :meth:`StreamedStats.update` and
    :func:`fold_correction_planes` must share for their means to agree
    bitwise (``np.add.accumulate`` is sequential).
    """
    finite = np.isfinite(block)
    abs_vals = np.where(finite, np.abs(block), 0.0)
    partials = abs_vals.sum(axis=-1)
    return (
        counts + finite.sum(axis=(-2, -1)),
        np.add.accumulate(np.column_stack([totals, partials]), axis=1)[:, -1],
        np.maximum(max_abs, abs_vals.max(axis=(-2, -1), initial=0.0)),
    )


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

    Lifecycle: :meth:`update` once per pulse, in pulse order, with that
    pulse's whole ``(S, L, W)`` window -- every cell the pulse did not
    write NaN -- then :meth:`finalize` once the run ends.

    Attached to every participating :class:`~repro.core.fast.FastResult`
    as ``result.streamed`` with the trial's row in ``result.streamed_row``
    -- one shared object per stack group, which pickling deduplicates
    within a shard payload, so the process executor carries it at no
    per-trial cost (unlike the stripped ``_StackBlock``).
    """

    def __init__(self, layout: StreamLayout) -> None:
        self.layout = layout
        # Position of this stream's first trial in the parent batch.
        # BatchRunner stamps it after reassembly; merge() orders shards
        # by it so ``a.merge(b)`` and ``b.merge(a)`` concatenate the
        # trial axis identically (shard futures may resolve out of
        # order).  Standalone streams keep 0 (self-first).
        self.trial_offset = 0
        trials, layers = layout.num_trials, layout.num_layers
        self._max = {
            "local": np.full((trials, layers), -np.inf),
            "inter_layer": np.full((trials, max(layers - 1, 0)), -np.inf),
            "global": np.full((trials, layers), -np.inf),
        }
        self._valid = {
            name: np.zeros(acc.shape, dtype=bool)
            for name, acc in self._max.items()
        }
        self._counts = np.zeros(trials, dtype=np.int64)
        self._totals = np.zeros(trials)
        self._max_abs = np.zeros(trials)
        self._prev: Optional[np.ndarray] = np.full(
            (trials, layers, layout.width), np.nan
        )

    @staticmethod
    def of(result) -> "StreamedStats":
        """A block-less result's streamed statistics, or raise."""
        if result.streamed is None:
            raise ValueError(
                "result holds no pulse-time matrices and no streamed "
                "statistics; run it with store_times=True"
            )
        return result.streamed

    def _fold(
        self,
        name: str,
        idx: np.ndarray,
        columns: slice,
        values: np.ndarray,
        any_valid: np.ndarray,
    ) -> None:
        acc = self._max[name]
        acc[idx, columns] = np.maximum(acc[idx, columns], values)
        self._valid[name][idx, columns] |= any_valid

    def update(
        self, pulse: int, times: np.ndarray, corrections: np.ndarray
    ) -> None:
        """Fold one pulse's ``(S, L, W)`` window of times and corrections.

        ``times``/``corrections`` are the kernel's live window (read
        only); every cell the pulse did not write must be NaN.
        """
        for group in self.layout.groups:
            idx = group.indices
            depth, width = group.depth, group.width
            layers = slice(None, depth)
            left, right = group.edges()
            block = times[idx, :depth]
            self._fold(
                "local",
                idx,
                layers,
                *_masked_plane_max(np.abs(block[..., left] - block[..., right])),
            )
            if pulse >= 1 and depth >= 2:
                # Same-vertex and both edge directions fold separately
                # into one accumulator: max is exact and validity ORs, so
                # no (n, L, 3W + 2E) concatenated temporary is needed.
                upper = block[:, :-1, :width]  # pulse k,   layer l
                lower = self._prev[idx, 1:depth, :width]  # k-1, l+1
                whole = slice(None)
                for a, b in ((whole, whole), (left, right), (right, left)):
                    self._fold(
                        "inter_layer",
                        idx,
                        slice(None, depth - 1),
                        *_masked_plane_max(np.abs(upper[..., a] - lower[..., b])),
                    )
            # Global skew is geometry-agnostic: the spread masks NaN, so
            # the padded lanes of the full-width block never contribute.
            maxs = np.fmax.reduce(block, axis=-1, initial=-np.inf)
            mins = np.fmin.reduce(block, axis=-1, initial=np.inf)
            any_valid = maxs >= mins
            self._fold(
                "global",
                idx,
                layers,
                np.where(any_valid, maxs - mins, -np.inf),
                any_valid,
            )
            # Slice to the group's true width: summing a padded W_max row
            # changes numpy's pairwise-sum association, so the mean would
            # drift ULPs away from a per-trial fold of the same data.
            running = self._counts[idx], self._totals[idx], self._max_abs[idx]
            self._counts[idx], self._totals[idx], self._max_abs[idx] = (
                _fold_corrections(corrections[idx, :depth, :width], *running)
            )
        self._prev[...] = times

    def finalize(self) -> None:
        """Release the inter-layer fold's previous-pulse buffer."""
        self._prev = None

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
        return np.where(
            self._valid[name][row, :columns],
            self._max[name][row, :columns],
            empty,
        )

    def trial_stats(self, row: int) -> Dict[str, float]:
        """One trial's correction count / mean ``|C|`` / max ``|C|``."""
        count = int(self._counts[row])
        mean = self._totals[row] / max(count, 1) if count > 0 else 0.0
        return {
            "max_abs": float(self._max_abs[row]),
            "mean_abs": float(mean),
            "num_corrections": count,
        }

    def merge(self, other: "StreamedStats") -> "StreamedStats":
        """Concatenate two shards' accumulators along the trial axis.

        The pair is ordered by :attr:`trial_offset` (lowest first, self
        on ties), not by argument position, so the merged trial axis
        matches the batch's trial order no matter which shard future
        resolved first.
        """
        if self.layout.num_pulses != other.layout.num_pulses:
            raise ValueError("cannot merge streams over different pulses")
        first, second = (
            (self, other)
            if self.trial_offset <= other.trial_offset
            else (other, self)
        )
        merged = StreamedStats(
            StreamLayout(
                first.layout.graphs + second.layout.graphs,
                first.layout.num_pulses,
            )
        )
        merged.finalize()
        merged.trial_offset = first.trial_offset
        split = first.layout.num_trials
        for part, rows in ((first, slice(None, split)), (second, slice(split, None))):
            for name, acc in part._max.items():
                merged._max[name][rows, : acc.shape[1]] = acc
                merged._valid[name][rows, : acc.shape[1]] = part._valid[name]
        merged._counts = np.concatenate([first._counts, second._counts])
        merged._totals = np.concatenate([first._totals, second._totals])
        merged._max_abs = np.concatenate([first._max_abs, second._max_abs])
        return merged


def fold_correction_planes(corrections: np.ndarray) -> Dict[str, np.ndarray]:
    """Correction stats of an ``(S, K, L, W)`` block, in *stream order*.

    Folds pulse by pulse through the helper :meth:`StreamedStats.update`
    uses (same partial-sum association), so materialized and streamed
    correction means agree bitwise -- a flat ``.sum()`` over the block
    would not, since float addition is order-sensitive.
    """
    corrections = np.asarray(corrections, dtype=float)
    trials = corrections.shape[0]
    counts = np.zeros(trials, dtype=np.int64)
    totals = np.zeros(trials)
    max_abs = np.zeros(trials)
    for pulse in range(corrections.shape[1]):
        counts, totals, max_abs = _fold_corrections(
            corrections[:, pulse], counts, totals, max_abs
        )
    return {
        "max_abs": max_abs,
        "mean_abs": np.where(
            counts > 0, totals / np.maximum(counts, 1), 0.0
        ),
        "num_corrections": counts,
    }
