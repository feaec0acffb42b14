"""Skew measures (Section 2, "Output and Skew").

Given pulse-time matrices ``times[k, l, v]`` (NaN where a node is faulty or
never pulsed), this module computes

* the intra-layer local skew
  ``L_l = sup_k max_{{v,w} in E, correct} |t^k_{v,l} - t^k_{w,l}|``,
* the inter-layer local skew
  ``L_{l,l+1} = sup_k max_{((v,l),(w,l+1)) in E_l, correct}
  |t^{k+1}_{v,l} - t^k_{w,l+1}|``
  (consecutive pulses are compared across layers because each layer adds
  one nominal period ``Lambda``),
* the overall local skew ``L = sup_l max(L_l, L_{l,l+1})``, and
* the global skew (largest same-pulse offset between *any* two correct
  nodes of a layer).

Two sets of entry points are provided:

* per-result functions (``local_skew_per_layer`` etc.) consuming a
  :class:`~repro.core.fast.FastResult`, and
* array-shaped functions (``local_skew_layers`` etc.) consuming raw time
  arrays of shape ``(..., K, L, W)`` with arbitrary leading batch axes --
  the backend used by :class:`~repro.experiments.batch.BatchRunner` to
  reduce a whole stack of trials in one sweep.

Layers with *no* correct pulse pair (all-NaN slices) have no measured
skew; every function takes an ``empty`` argument defining the value
reported for them (default ``0.0``, the historical behavior; pass
``float("nan")`` or ``-inf`` to make such layers explicit).  NaN handling
is done with explicit validity masks, so no NumPy ``RuntimeWarning`` is
ever raised -- and none is blanket-suppressed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fast import FastResult
from repro.engine.trace import Trace
from repro.topology.layered import LayeredGraph

__all__ = [
    "times_from_trace",
    "masked_times",
    "masked_max",
    "local_skew_layers",
    "inter_layer_skew_layers",
    "overall_skew_layers",
    "global_skew_layers",
    "local_skew_per_layer",
    "max_local_skew",
    "inter_layer_skew",
    "max_inter_layer_skew",
    "overall_skew",
    "global_skew",
    "global_skew_per_layer",
]

AxisSpec = Union[int, Tuple[int, ...], None]


def times_from_trace(
    trace: Trace, graph: LayeredGraph, num_pulses: int
) -> np.ndarray:
    """Convert an event-driven :class:`Trace` into a ``(K, L, W)`` array."""
    times = np.full((num_pulses, graph.num_layers, graph.width), np.nan)
    for record in trace.records:
        v, layer = record.node
        if 0 <= record.pulse < num_pulses:
            times[record.pulse, layer, v] = record.time
    return times


def masked_times(result: FastResult) -> np.ndarray:
    """Pulse times with faulty nodes masked out (already NaN in ``times``)."""
    return result.times


def masked_max(
    values: np.ndarray, axis: AxisSpec, empty: float = 0.0
) -> np.ndarray:
    """``max`` over ``axis`` ignoring NaNs; all-NaN/empty slices -> ``empty``.

    Warning-free by construction: NaNs are replaced with ``-inf`` under an
    explicit validity mask instead of suppressing ``nanmax`` warnings.
    Public because NaN-padded consumers outside this module (the
    per-trial maxima of :class:`~repro.experiments.batch.BatchResult`
    over rows padded past a trial's own depth) reduce over padding with
    the same semantics.
    """
    values = np.asarray(values, dtype=float)
    valid = ~np.isnan(values)
    any_valid = valid.any(axis=axis)
    out = np.where(valid, values, -np.inf).max(axis=axis, initial=-np.inf)
    return np.where(any_valid, out, empty)


# ----------------------------------------------------------------------
# Array-shaped entry points: times of shape (..., K, L, W)
# ----------------------------------------------------------------------
def local_skew_layers(
    times: np.ndarray, graph: LayeredGraph, empty: float = 0.0
) -> np.ndarray:
    """Measured ``L_l`` from raw times ``(..., K, L, W)``; shape ``(..., L)``.

    Leading axes (e.g. a batch-of-trials axis) are preserved; the supremum
    runs over the pulse axis and every base-graph edge.
    """
    times = np.asarray(times, dtype=float)
    left, right = graph.base.edge_index_arrays()
    diffs = np.abs(times[..., left] - times[..., right])  # (..., K, L, E)
    return masked_max(diffs, axis=(-3, -1), empty=empty)


def inter_layer_skew_layers(
    times: np.ndarray, graph: LayeredGraph, empty: float = 0.0
) -> np.ndarray:
    """Measured ``L_{l,l+1}`` from raw times; shape ``(..., L - 1)``.

    Compares pulse ``k+1`` on layer ``l`` with pulse ``k`` on layer
    ``l + 1`` along every edge of ``E_l`` (own-copy and neighbor-copy).
    Fewer than two recorded pulses leave nothing to compare: every entry
    is ``empty``.
    """
    times = np.asarray(times, dtype=float)
    num_layers = times.shape[-2]
    out_shape = times.shape[:-3] + (max(num_layers - 1, 0),)
    if times.shape[-3] < 2 or num_layers < 2:
        return np.full(out_shape, empty)
    upper = times[..., 1:, :-1, :]  # pulse k+1, layer l
    lower = times[..., :-1, 1:, :]  # pulse k,   layer l+1
    left, right = graph.base.edge_index_arrays()
    diffs = np.concatenate(
        [
            np.abs(upper - lower),
            np.abs(upper[..., left] - lower[..., right]),
            np.abs(upper[..., right] - lower[..., left]),
        ],
        axis=-1,
    )  # (..., K-1, L-1, W + 2E)
    return masked_max(diffs, axis=(-3, -1), empty=empty)


def overall_skew_layers(
    times: np.ndarray, graph: LayeredGraph, empty: float = 0.0
) -> np.ndarray:
    """The paper's ``L = sup_l max(L_l, L_{l,l+1})`` per batch entry.

    Reduces raw times ``(..., K, L, W)`` to shape ``(...,)`` in one sweep
    -- the whole-sweep form of :func:`overall_skew`, and the reference
    :meth:`~repro.experiments.batch.BatchResult.overall_skews` is tested
    against.  Grids
    with a single layer boundary-free report the intra-layer part alone.
    """
    times = np.asarray(times, dtype=float)
    local = local_skew_layers(times, graph, empty=empty).max(axis=-1)
    inter = inter_layer_skew_layers(times, graph, empty=empty)
    if inter.shape[-1] == 0:
        return local
    return np.maximum(local, inter.max(axis=-1))


def global_skew_layers(times: np.ndarray, empty: float = 0.0) -> np.ndarray:
    """Largest same-pulse spread within each layer; shape ``(..., L)``."""
    times = np.asarray(times, dtype=float)
    valid = ~np.isnan(times)
    any_valid = valid.any(axis=-1)
    maxs = np.where(valid, times, -np.inf).max(axis=-1, initial=-np.inf)
    mins = np.where(valid, times, np.inf).min(axis=-1, initial=np.inf)
    spread = np.where(any_valid, maxs - mins, np.nan)  # (..., K, L)
    return masked_max(spread, axis=-2, empty=empty)


# ----------------------------------------------------------------------
# Per-result entry points
# ----------------------------------------------------------------------
def _selected_times(
    result: FastResult, pulses: Optional[Sequence[int]]
) -> np.ndarray:
    return result.times if pulses is None else result.times[list(pulses)]


def local_skew_per_layer(
    result: FastResult,
    pulses: Optional[Sequence[int]] = None,
    empty: float = 0.0,
) -> np.ndarray:
    """Measured ``L_l`` for every layer; shape ``(num_layers,)``.

    ``pulses`` restricts the supremum to the given pulse indices (e.g. to
    drop a warm-up prefix in self-stabilization runs).  Layers with no
    correct pulse pair report ``empty``.
    """
    return local_skew_layers(
        _selected_times(result, pulses), result.graph, empty=empty
    )


def max_local_skew(
    result: FastResult, pulses: Optional[Sequence[int]] = None
) -> float:
    """``sup_l L_l`` over the measured execution."""
    return float(np.max(local_skew_per_layer(result, pulses)))


def inter_layer_skew(
    result: FastResult,
    pulses: Optional[Sequence[int]] = None,
    empty: float = 0.0,
) -> np.ndarray:
    """Measured ``L_{l,l+1}`` for ``l = 0 .. num_layers-2``."""
    return inter_layer_skew_layers(
        _selected_times(result, pulses), result.graph, empty=empty
    )


def max_inter_layer_skew(
    result: FastResult, pulses: Optional[Sequence[int]] = None
) -> float:
    """``sup_l L_{l,l+1}``."""
    values = inter_layer_skew(result, pulses)
    if values.size == 0:
        return 0.0
    return float(np.max(values))


def overall_skew(
    result: FastResult, pulses: Optional[Sequence[int]] = None
) -> float:
    """The paper's ``L = sup_l max(L_l, L_{l,l+1})``."""
    return max(
        max_local_skew(result, pulses), max_inter_layer_skew(result, pulses)
    )


def global_skew_per_layer(
    result: FastResult,
    pulses: Optional[Sequence[int]] = None,
    empty: float = 0.0,
) -> np.ndarray:
    """Largest same-pulse spread within each layer (any pair of nodes)."""
    return global_skew_layers(_selected_times(result, pulses), empty=empty)


def global_skew(
    result: FastResult, pulses: Optional[Sequence[int]] = None
) -> float:
    """Maximum same-pulse spread over all layers (the "global skew")."""
    return float(np.max(global_skew_per_layer(result, pulses)))
