"""The layered synchronization DAG ``G`` built from a base graph ``H``.

Section 2 of the paper: for each layer ``l`` there is a copy ``(v, l)`` of
every ``v`` of ``H``, and edges ``((v, l), (w, l+1))`` whenever ``v == w`` or
``{v, w}`` is an edge of ``H``.  Pulses propagate along the DAG from layer 0.

The number of layers is bounded by ``Theta(sqrt(n))`` in the paper (square
chip); here it is a free constructor argument.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator, List, Set, Tuple

from repro.topology.base_graph import BaseGraph

__all__ = ["NodeId", "LayeredGraph", "layer_major_nodes"]

#: A node of ``G``: ``(base_vertex, layer)``.
NodeId = Tuple[int, int]


def layer_major_nodes(width: int, num_layers: int) -> Iterator[NodeId]:
    """Every ``(v, layer)`` id, layer by layer, without a Python-level loop."""
    return zip(
        chain.from_iterable(repeat(range(width), num_layers)),
        chain.from_iterable(map(repeat, range(num_layers), repeat(width))),
    )


class LayeredGraph:
    """The DAG ``G = (V_G, E_G)`` of the paper.

    Parameters
    ----------
    base:
        The base graph ``H``.
    num_layers:
        Number of layers (``>= 1``).  Layer 0 holds the synchronized input
        pulses; layers ``1 .. num_layers - 1`` run the forwarding algorithm.
    """

    def __init__(self, base: BaseGraph, num_layers: int) -> None:
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.base = base
        self.num_layers = num_layers

    # ------------------------------------------------------------------
    # Size accessors
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Nodes per layer, ``|V(H)|``."""
        return self.base.num_nodes

    @property
    def num_nodes(self) -> int:
        """Total number of nodes ``n = |V(H)| * num_layers``."""
        return self.base.num_nodes * self.num_layers

    @property
    def diameter(self) -> int:
        """Diameter ``D`` of the base graph (the ``D`` of all skew bounds)."""
        return self.base.diameter

    def index(self, node: NodeId) -> int:
        """Dense array index of ``node``; row-major by layer."""
        v, layer = node
        self._check(v, layer)
        return layer * self.base.num_nodes + v

    def node_at(self, index: int) -> NodeId:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.num_nodes:
            raise ValueError(f"index {index} out of range")
        layer, v = divmod(index, self.base.num_nodes)
        return (v, layer)

    def _check(self, v: int, layer: int) -> None:
        if not 0 <= v < self.base.num_nodes:
            raise ValueError(f"base vertex {v} out of range")
        if not 0 <= layer < self.num_layers:
            raise ValueError(f"layer {layer} out of range")

    # ------------------------------------------------------------------
    # DAG structure
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[NodeId]:
        """All nodes, layer by layer."""
        return layer_major_nodes(self.base.num_nodes, self.num_layers)

    def layer_nodes(self, layer: int) -> List[NodeId]:
        """Nodes of a given layer."""
        self._check(0, layer)
        return [(v, layer) for v in self.base.nodes()]

    def predecessors(self, node: NodeId) -> List[NodeId]:
        """In-neighbors of ``node``: its own copy plus copies of H-neighbors
        on the preceding layer.  Layer-0 nodes have none.

        The own-copy predecessor ``(v, l-1)`` is always listed first.
        """
        v, layer = node
        self._check(v, layer)
        if layer == 0:
            return []
        return [(v, layer - 1)] + [(w, layer - 1) for w in self.base.neighbors(v)]

    def neighbor_predecessors(self, node: NodeId) -> List[NodeId]:
        """Predecessors other than the node's own copy."""
        v, layer = node
        self._check(v, layer)
        if layer == 0:
            return []
        return [(w, layer - 1) for w in self.base.neighbors(v)]

    def successors(self, node: NodeId) -> List[NodeId]:
        """Out-neighbors of ``node`` on the next layer (empty on last layer)."""
        v, layer = node
        self._check(v, layer)
        if layer == self.num_layers - 1:
            return []
        return [(v, layer + 1)] + [(w, layer + 1) for w in self.base.neighbors(v)]

    def in_degree(self, node: NodeId) -> int:
        """In-degree: 0 on layer 0, else ``deg_H(v) + 1``."""
        v, layer = node
        self._check(v, layer)
        if layer == 0:
            return 0
        return self.base.degree(v) + 1

    def out_degree(self, node: NodeId) -> int:
        """Out-degree: 0 on the last layer, else ``deg_H(v) + 1``."""
        v, layer = node
        self._check(v, layer)
        if layer == self.num_layers - 1:
            return 0
        return self.base.degree(v) + 1

    def edges_between(self, layer: int) -> Iterator[Tuple[NodeId, NodeId]]:
        """All edges of ``E_layer`` (from ``layer`` to ``layer + 1``)."""
        if not 0 <= layer < self.num_layers - 1:
            return
        for v in self.base.nodes():
            for succ in self.successors((v, layer)):
                yield ((v, layer), succ)

    def intra_layer_pairs(self, layer: int) -> Iterator[Tuple[NodeId, NodeId]]:
        """Pairs of adjacent nodes within a layer (for local skew ``L_l``)."""
        self._check(0, layer)
        for v, w in self.base.edges:
            yield ((v, layer), (w, layer))

    # ------------------------------------------------------------------
    # Ancestors (Definition 4.32)
    # ------------------------------------------------------------------
    def ancestors_within(self, node: NodeId, distance: int) -> Set[NodeId]:
        """Distance-``distance`` ancestors of ``node`` (Definition 4.32).

        In ``G`` every directed path advances exactly one layer per hop, so a
        path of length ``j`` from ``(w, l-j)`` to ``(v, l)`` exists iff
        ``d_H(w, v) <= j``.
        """
        v, layer = node
        self._check(v, layer)
        if distance < 0:
            raise ValueError(f"distance must be >= 0, got {distance}")
        dist = self.base.distances_from(v)
        result: Set[NodeId] = set()
        max_back = min(distance, layer)
        for j in range(1, max_back + 1):
            for w in self.base.nodes():
                if dist[w] <= j:
                    result.add((w, layer - j))
        return result

    def count_ancestors_within(self, node: NodeId, distance: int) -> int:
        """Cheap count of distance-``distance`` ancestors (no set building)."""
        v, layer = node
        self._check(v, layer)
        dist = self.base.distances_from(v)
        max_back = min(distance, layer)
        total = 0
        for j in range(1, max_back + 1):
            total += sum(1 for w in self.base.nodes() if dist[w] <= j)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LayeredGraph(base={self.base.name}, layers={self.num_layers}, "
            f"n={self.num_nodes})"
        )
