"""Potential functions of Definition 4.1.

For base vertices ``v, w``, level ``s`` and layer ``l``::

    psi^s_{v,w}(l) = t_{v,l} - t_{w,l} - 4*s*kappa*d(v, w)
    Psi^s(l)       = max_{v,w} psi^s_{v,w}(l)
    xi^s_{v,w}(l)  = t_{v,l} - t_{w,l} - (4*s - 2)*kappa*d(v, w)
    Xi^s(l)        = max_{v,w} xi^s_{v,w}(l)

Observation 4.2 converts a bound on ``Psi^s`` into a local skew bound:
``Psi^s(l) <= B  ==>  L_l <= B + 4*s*kappa``.  The analysis bounds
``Psi^s`` level by level (Lemma 4.25: each level roughly halves it), and
the experiments verify the measured decay.
"""

from __future__ import annotations

import math
import numpy as np

from repro.core.fast import FastResult
from repro.topology.layered import LayeredGraph

__all__ = [
    "psi",
    "Psi",
    "xi",
    "Xi",
    "potential_layers",
    "local_skew_bound_from_potential",
]


def _pair_weights(result: FastResult, coefficient: float) -> np.ndarray:
    """Matrix ``coefficient * d(v, w)`` over all base-vertex pairs."""
    base = result.graph.base
    n = base.num_nodes
    dist = np.empty((n, n))
    for v in range(n):
        dist[v, :] = base.distances_from(v)
    return coefficient * dist


def psi(
    result: FastResult, s: int, v: int, w: int, layer: int, pulse: int
) -> float:
    """``psi^s_{v,w}(layer)`` at a given pulse (NaN if either node is silent)."""
    kappa = result.params.kappa
    t_v = result.times[pulse, layer, v]
    t_w = result.times[pulse, layer, w]
    return float(
        t_v - t_w - 4.0 * s * kappa * result.graph.base.distance(v, w)
    )


def xi(
    result: FastResult, s: int, v: int, w: int, layer: int, pulse: int
) -> float:
    """``xi^s_{v,w}(layer)`` at a given pulse."""
    kappa = result.params.kappa
    t_v = result.times[pulse, layer, v]
    t_w = result.times[pulse, layer, w]
    return float(
        t_v - t_w - (4.0 * s - 2.0) * kappa * result.graph.base.distance(v, w)
    )


def _potential(
    result: FastResult,
    layer: int,
    pulse: int,
    weights: np.ndarray,
) -> float:
    times = result.times[pulse, layer, :]
    diffs = times[:, None] - times[None, :] - weights
    finite = diffs[np.isfinite(diffs)]
    if finite.size == 0:
        return math.nan
    return float(np.max(finite))


def Psi(result: FastResult, s: int, layer: int, pulse: int) -> float:
    """``Psi^s(layer)`` at a given pulse (max over all correct pairs)."""
    weights = _pair_weights(result, 4.0 * s * result.params.kappa)
    return _potential(result, layer, pulse, weights)


def Xi(result: FastResult, s: int, layer: int, pulse: int) -> float:
    """``Xi^s(layer)`` at a given pulse."""
    weights = _pair_weights(result, (4.0 * s - 2.0) * result.params.kappa)
    return _potential(result, layer, pulse, weights)


def potential_layers(
    times: np.ndarray,
    graph: LayeredGraph,
    coefficient: float,
    empty: float = math.nan,
) -> np.ndarray:
    """Per-layer potential sup from raw times ``(..., K, L, W)``.

    The array-shaped sibling of :func:`Psi` / :func:`Xi`: the supremum of
    ``t_v - t_w - coefficient * d(v, w)`` over all pairs *and* pulses per
    layer (pass ``coefficient = 4 s kappa`` for ``Psi^s``,
    ``(4 s - 2) kappa`` for ``Xi^s``); shape ``(..., L)``.  Layers with
    no correct pair report ``empty`` (default NaN, matching the scalar
    entry points).
    """
    times = np.asarray(times, dtype=float)
    base = graph.base
    n = base.num_nodes
    dist = np.empty((n, n))
    for v in range(n):
        dist[v, :] = base.distances_from(v)
    weights = coefficient * dist
    diffs = (times[..., :, None] - times[..., None, :]) - weights
    valid = np.isfinite(diffs)
    any_valid = valid.any(axis=(-4, -2, -1))
    out = np.where(valid, diffs, -np.inf).max(
        axis=(-4, -2, -1), initial=-np.inf
    )
    return np.where(any_valid, out, empty)


def local_skew_bound_from_potential(
    result: FastResult, s: int, psi_bound: float
) -> float:
    """Observation 4.2: ``Psi^s <= B  ==>  L_l <= B + 4*s*kappa``."""
    return psi_bound + 4.0 * s * result.params.kappa
