"""Streamed statistics: fold the skew and correction statistics online.

The kernels of :mod:`repro.core.fast` / :mod:`repro.core.fast_batch`
advance one ``(S, W)`` layer plane at a time, but until now every trial's
full ``(K, L, W)`` pulse-time block stayed in memory so the array
reducers of :mod:`repro.analysis.skew` could run afterwards -- stacked,
an ``(S, K, L_max, W_max)`` array that caps sweep size long before the
kernel does.  This module is the incremental counterpart:
:class:`StreamedStats` consumes each plane *as the kernel writes it* and
folds the paper's four statistics -- local, inter-layer and global skew
plus the correction summary -- into O(S, L) accumulators, so a sweep
with ``store_times=False`` never allocates the pulse-time block at all.

Design constraints, all load-bearing:

* **Bitwise parity.**  Every skew accumulator is a pure ``max``-fold.
  Max is associative and exact in floating point, so a streamed
  statistic is *bitwise identical* to the corresponding array reducer
  applied to the materialized block (the differential suite pins this).
  The one non-max statistic -- the correction mean -- folds per-plane
  partial sums in a fixed ``(pulse, layer)`` order, and
  :func:`fold_correction_planes` applies the *same* order to materialized
  blocks so both paths agree bitwise there too.
* **NaN semantics.**  NaN is the simulator's "never pulsed / faulty /
  padding" marker; the folds mask it exactly like
  :func:`repro.analysis.skew.masked_max` (explicit validity masks, no
  warnings suppressed).  Padding cells of a heterogeneous stack are NaN
  and therefore invisible here, as everywhere else.
* **Compaction-aware.**  ``update`` takes the stack's ``active_rows``
  index; accumulators gather/scatter through it like every other
  row-indexed tensor of the compacted kernel.  A fully skipped layer
  step still *must* call ``update`` with an empty ``rows`` array so the
  inter-layer fold can retire its previous-pulse plane.
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

    def active(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """Group rows intersected with the kernel's active-row mask."""
        if mask is None:
            return self.indices
        return self.indices[mask[self.indices]]


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


def _rows_mask(
    rows: Optional[np.ndarray], num_trials: int
) -> Optional[np.ndarray]:
    if rows is None:
        return None
    mask = np.zeros(num_trials, dtype=bool)
    mask[rows] = True
    return mask


def _masked_plane_max(diffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Last-axis max of ``diffs`` under NaN masking: ``(values, any_valid)``.

    Same −inf-fill construction as :func:`repro.analysis.skew.masked_max`,
    so folding these per-plane maxima reproduces the array reducer's
    joint max bit for bit.
    """
    valid = ~np.isnan(diffs)
    values = np.where(valid, diffs, -np.inf).max(axis=-1, initial=-np.inf)
    return values, valid.any(axis=-1)


def _correction_plane(
    plane: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ``(count, sum |C|, max |C|)`` over a plane's finite cells."""
    finite = np.isfinite(plane)
    abs_vals = np.where(finite, np.abs(plane), 0.0)
    return (
        finite.sum(axis=-1),
        abs_vals.sum(axis=-1),
        abs_vals.max(axis=-1, initial=0.0),
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

    Lifecycle: :meth:`update` for **every** ``(pulse, layer)`` cell in
    pulse-major order -- including layer 0 and layer steps the compacted
    kernel skipped outright (``rows`` is an empty index array there) --
    then :meth:`finalize` once the run ends.

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
        self, name: str, idx: np.ndarray, column: int, diffs: np.ndarray
    ) -> None:
        values, any_valid = _masked_plane_max(diffs)
        acc = self._max[name]
        acc[idx, column] = np.maximum(acc[idx, column], values)
        self._valid[name][idx, column] |= any_valid

    def update(
        self,
        pulse: int,
        layer: int,
        times: np.ndarray,
        corrections: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        """Fold one ``(S, W)`` plane of times and corrections.

        ``times``/``corrections`` are the kernel's live planes (read
        only); ``rows`` restricts the fold to the active trials.
        """
        mask = _rows_mask(rows, self.layout.num_trials)
        for group in self.layout.groups:
            if layer >= group.depth:
                continue
            idx = group.active(mask)
            if idx.size == 0:
                continue
            left, right = group.edges()
            width = group.width
            plane = times[idx]
            self._fold(
                "local", idx, layer, np.abs(plane[:, left] - plane[:, right])
            )
            if pulse >= 1 and layer <= group.depth - 2:
                upper = plane[:, :width]  # pulse k,   layer l
                lower = self._prev[idx, layer + 1, :width]  # k-1, l+1
                self._fold(
                    "inter_layer",
                    idx,
                    layer,
                    np.concatenate(
                        [
                            np.abs(upper - lower),
                            np.abs(upper[:, left] - lower[:, right]),
                            np.abs(upper[:, right] - lower[:, left]),
                        ],
                        axis=-1,
                    ),
                )
            # Global skew is geometry-agnostic: the spread masks NaN, so
            # the padded lanes of the full-width plane never contribute.
            valid = ~np.isnan(plane)
            any_valid = valid.any(axis=-1)
            maxs = np.where(valid, plane, -np.inf).max(
                axis=-1, initial=-np.inf
            )
            mins = np.where(valid, plane, np.inf).min(
                axis=-1, initial=np.inf
            )
            spread = np.where(any_valid, maxs - mins, -np.inf)
            acc = self._max["global"]
            acc[idx, layer] = np.maximum(acc[idx, layer], spread)
            self._valid["global"][idx, layer] |= any_valid
            # Slice to the group's true width: summing a padded W_max row
            # changes numpy's pairwise-sum association, so the mean would
            # drift ULPs away from a per-trial fold of the same data.
            counts, totals, max_abs = _correction_plane(
                corrections[idx][:, :width]
            )
            self._counts[idx] += counts
            self._totals[idx] = self._totals[idx] + totals
            self._max_abs[idx] = np.maximum(self._max_abs[idx], max_abs)
        if self._prev is not None:
            if rows is None:
                self._prev[:, layer, :] = times
            else:
                self._prev[:, layer, :] = np.nan
                self._prev[rows, layer, :] = times[rows]

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

    Reduces plane by plane exactly like :meth:`StreamedStats.update`
    (same partial-sum association), so materialized and streamed
    correction means agree bitwise -- a flat ``.sum()`` over the block
    would not, since float addition is order-sensitive.
    """
    corrections = np.asarray(corrections, dtype=float)
    trials, pulses, layers, _ = corrections.shape
    counts = np.zeros(trials, dtype=np.int64)
    totals = np.zeros(trials)
    max_abs = np.zeros(trials)
    for pulse in range(pulses):
        for layer in range(layers):
            plane_counts, plane_totals, plane_max = _correction_plane(
                corrections[:, pulse, layer, :]
            )
            counts += plane_counts
            totals = totals + plane_totals
            max_abs = np.maximum(max_abs, plane_max)
    return {
        "max_abs": max_abs,
        "mean_abs": np.where(
            counts > 0, totals / np.maximum(counts, 1), 0.0
        ),
        "num_corrections": counts,
    }
