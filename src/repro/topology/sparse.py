"""Low-degree, diameter-optimized base graphs for large-``n`` sweeps.

The skew bounds of the paper are most interesting on graphs where the
diameter grows much slower than the node count while the degree stays
tiny -- the regime of Octopus-style sparse CXL pod topologies and
supernode P2P overlays (see PAPERS.md).  The workhorse here is the
circulant ring ``C_n(1, s)``: a cycle plus stride-``s`` chords.  With
``s ~ sqrt(n)`` the diameter is ``O(sqrt(n))`` at constant degree 4, so
a million-node layered graph stays within reach of the fast path.
Optional *hub* vertices attach to evenly spaced ring vertices, which
both shrinks the diameter and skews the degree distribution: one hub of
degree ``d`` would widen every row of a padded ``(W, d)`` neighbor table
to ``d``, which is why the simulator keeps neighbor copies on the flat
CSR entry axis (``O(n + m)``) instead.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.topology.base_graph import BaseGraph
from repro.topology.layered import LayeredGraph

__all__ = ["sparse_base_graph", "sparse_layered"]


def sparse_base_graph(
    num_nodes: int,
    chord_stride: Optional[int] = None,
    num_hubs: int = 0,
    hub_degree: Optional[int] = None,
) -> BaseGraph:
    """Circulant ring ``C_n(1, s)`` with optional high-degree hubs.

    Parameters
    ----------
    num_nodes:
        Total vertex count, hubs included.  Ring vertices are
        ``0 .. num_nodes - num_hubs - 1``; hubs take the trailing ids.
    chord_stride:
        Chord stride ``s`` (``2 <= s <= ring - 2``).  Defaults to
        ``max(2, isqrt(ring))``, which makes the ring diameter
        ``O(sqrt(ring))`` at degree 4.
    num_hubs:
        Number of hub vertices appended after the ring.
    hub_degree:
        Ring attachments per hub (``>= 2`` so the minimum-degree-2 model
        assumption holds).  Defaults to ``max(4, isqrt(ring))``.  Each
        hub connects to every ``ring // hub_degree``-th ring vertex,
        rotated by the hub index so distinct hubs cover distinct spokes.

    Example
    -------
    >>> g = sparse_base_graph(64)
    >>> g.max_degree()
    4
    >>> skewed = sparse_base_graph(65, num_hubs=1, hub_degree=16)
    >>> skewed.max_degree()
    16
    """
    if num_hubs < 0:
        raise ValueError(f"num_hubs must be >= 0, got {num_hubs}")
    ring = num_nodes - num_hubs
    if ring < 5:
        raise ValueError(
            f"need at least 5 ring vertices, got {ring} "
            f"(num_nodes={num_nodes}, num_hubs={num_hubs})"
        )
    if chord_stride is None:
        chord_stride = max(2, math.isqrt(ring))
    if not 2 <= chord_stride <= ring - 2:
        raise ValueError(
            f"chord_stride must be in [2, {ring - 2}], got {chord_stride}"
        )
    edges = set()
    for i in range(ring):
        ring_next = (i + 1) % ring
        chord = (i + chord_stride) % ring
        edges.add((min(i, ring_next), max(i, ring_next)))
        edges.add((min(i, chord), max(i, chord)))
    if num_hubs:
        if hub_degree is None:
            hub_degree = max(4, math.isqrt(ring))
        if not 2 <= hub_degree <= ring:
            raise ValueError(
                f"hub_degree must be in [2, {ring}], got {hub_degree}"
            )
        spoke_stride = max(1, ring // hub_degree)
        for h in range(num_hubs):
            hub = ring + h
            for j in range(hub_degree):
                target = (h + j * spoke_stride) % ring
                edges.add((target, hub))
    return BaseGraph(
        num_nodes,
        sorted(edges),
        name=(
            f"sparse_ring({num_nodes},s={chord_stride},hubs={num_hubs})"
        ),
    )


def sparse_layered(
    width: int,
    num_layers: int,
    chord_stride: Optional[int] = None,
    num_hubs: int = 0,
    hub_degree: Optional[int] = None,
) -> LayeredGraph:
    """Layered DAG over :func:`sparse_base_graph` -- the mega-sweep substrate.

    ``width * num_layers`` total nodes; with the default stride the base
    diameter is ``O(sqrt(width))``, so skew bounds stay informative at
    widths where a dense neighbor representation cannot allocate.

    Example
    -------
    >>> g = sparse_layered(64, 3)
    >>> (g.width, g.num_layers)
    (64, 3)
    """
    base = sparse_base_graph(
        width,
        chord_stride=chord_stride,
        num_hubs=num_hubs,
        hub_degree=hub_degree,
    )
    return LayeredGraph(base, num_layers)
