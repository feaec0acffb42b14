"""Base graphs ``H`` for the synchronization network.

The paper requires ``H`` to be simple, connected, and of minimum degree 2
(Section 2).  The graph it actually deploys on a square chip is a line with
replicated endpoints (Figure 2), built here by :func:`replicated_line`.
Alternative base graphs (cycle, complete, torus) are provided because the
analysis is stated for arbitrary minimum-degree-2 base graphs.

Nodes are integers ``0 .. n-1``; the adjacency structure is immutable after
construction.  Everything derived from it alone -- BFS distances, the
CSR neighbor arrays, their degree-column plan and the edge index
arrays -- lives in one :class:`_Structure` per
adjacency, shared by every graph of that shape through a small LRU: a
seed sweep builds a fresh ``replicated_line`` per trial, and all of them
read one BFS and one set of read-only arrays.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "BaseGraph",
    "replicated_line",
    "cycle_graph",
    "complete_graph",
    "path_graph",
    "star_graph",
    "torus_graph",
]


#: Distinct adjacencies whose derived structure stays shared.  A sweep
#: uses one or two base-graph shapes at a time; a chaos campaign adds one
#: per distinct epoch topology.  Past this many, the least recently built
#: shape is dropped (graphs holding it keep their copy).
_SHARED_STRUCTURES = 16

Adjacency = Tuple[Tuple[int, ...], ...]


class _Structure:
    """Derived, read-only data of one adjacency, filled on demand.

    Every field is a function of the adjacency alone, so graphs with equal
    adjacency share one instance (:func:`_shared_structure`).  All arrays
    are read-only.
    """

    __slots__ = ("distances", "edge_index", "csr", "columns")

    def __init__(self) -> None:
        self.distances: Dict[int, np.ndarray] = {}
        self.edge_index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.columns: Optional[Tuple[Tuple, ...]] = None


_structures: "OrderedDict[Adjacency, _Structure]" = OrderedDict()
_structures_lock = threading.Lock()


def _shared_structure(adjacency: Adjacency) -> _Structure:
    """The one :class:`_Structure` of ``adjacency`` (LRU, bounded)."""
    with _structures_lock:
        entry = _structures.get(adjacency)
        if entry is None:
            entry = _structures[adjacency] = _Structure()
            if len(_structures) > _SHARED_STRUCTURES:
                _structures.popitem(last=False)
        else:
            _structures.move_to_end(adjacency)
        return entry


def _bfs(indptr: np.ndarray, indices: np.ndarray, source: int) -> np.ndarray:
    """Frontier-at-a-time BFS distances over CSR arrays; ``-1`` unreached.

    Each level expands every frontier vertex's CSR segment in one
    vectorized gather instead of a Python loop per edge.
    """
    dist = np.full(indptr.shape[0] - 1, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
        gather = np.repeat(starts - shift, counts) + np.arange(total)
        nbrs = indices[gather]
        fresh = np.unique(nbrs[dist[nbrs] < 0])
        if fresh.size == 0:
            break
        depth += 1
        dist[fresh] = depth
        frontier = fresh
    dist.setflags(write=False)
    return dist


def degree_columns(
    indptr: np.ndarray,
    sources: np.ndarray,
    valid: Optional[np.ndarray] = None,
    vertices: Optional[np.ndarray] = None,
) -> Tuple[Tuple, ...]:
    """The entries of a CSR-style entry axis by degree column (read-only).

    Vertex ``v`` holds entries ``indptr[v] .. indptr[v + 1] - 1``;
    ``vertices`` are the lanes (None: every vertex).  Column ``j`` is
    ``(entries, sources, lanes, valid)``: the ``lanes`` with more than
    ``j`` entries (None: every lane), their entries ``indptr[v] + j``,
    and ``sources`` / ``valid`` there -- ``sources`` is ``(E,)``, or
    ``(S, E)`` with one row per trial together with an ``(S, E)``
    ``valid`` (None: every entry valid; a column with no valid entry is
    left out).  Each column's lanes are the previous one's survivors, so
    the columns cost ``O(lanes + entries)``.
    """
    starts = indptr[:-1] if vertices is None else indptr[vertices]
    degree = (indptr[1:] if vertices is None else indptr[vertices + 1]) - starts
    columns = []
    lanes = np.arange(degree.size)
    for j in range(int(degree.max(initial=0))):
        lanes = lanes[degree[lanes] > j]
        at = None if lanes.size == degree.size else lanes
        entries = (starts if at is None else starts[at]) + j
        mask = None
        if valid is not None:
            mask = valid[:, entries]
            if not mask.any():
                continue
            mask = None if mask.all() else mask
        column = (entries, sources[..., entries], at, mask)
        for arr in column:
            if arr is not None:
                arr.setflags(write=False)
        columns.append(column)
    return tuple(columns)


class BaseGraph:
    """An undirected simple graph with precomputed BFS distances on demand.

    Parameters
    ----------
    num_nodes:
        Number of vertices; vertices are ``0 .. num_nodes - 1``.
    edges:
        Iterable of undirected edges ``(v, w)``.  Self-loops and duplicate
        edges are rejected.
    require_min_degree_2:
        When true (default), enforce the paper's minimum-degree-2 model
        assumption.  Tests may disable it to study degenerate graphs.
    require_connected:
        When true (default), reject disconnected graphs.  Chaos-campaign
        epoch graphs (:mod:`repro.faults.campaign`) disable it: a vertex
        that has *left* the network keeps its slot (so array shapes stay
        fixed across epochs) but drops all of its edges, which makes the
        instantaneous topology formally disconnected.
    name:
        Optional human-readable label used in reports.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        require_min_degree_2: bool = True,
        require_connected: bool = True,
        name: str = "custom",
    ) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
        seen = set()
        for v, w in edges:
            if not (0 <= v < num_nodes and 0 <= w < num_nodes):
                raise ValueError(f"edge ({v}, {w}) out of range for n={num_nodes}")
            if v == w:
                raise ValueError(f"self-loop at node {v} is not allowed")
            key = (min(v, w), max(v, w))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adjacency[v].append(w)
            adjacency[w].append(v)
        self._num_nodes = num_nodes
        self._adjacency: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adjacency
        )
        self._edges: Tuple[Tuple[int, int], ...] = tuple(sorted(seen))
        self.name = name
        self._diameter: int | None = None
        self._shared = _shared_structure(self._adjacency)
        if require_connected and not self._is_connected():
            raise ValueError("base graph must be connected")
        if require_min_degree_2 and num_nodes > 1:
            bad = [v for v in range(num_nodes) if len(self._adjacency[v]) < 2]
            if bad:
                raise ValueError(
                    f"base graph must have minimum degree 2; nodes {bad} do not"
                )

    def _is_connected(self) -> bool:
        # The vectorized BFS doubles as the connectivity probe and warms
        # the distance cache for vertex 0 (shared by equal adjacencies).
        return bool((self.distances_from(0) >= 0).all())

    def __getstate__(self) -> dict:
        # The shared structure is rebuilt from the adjacency on unpickling,
        # so a worker process joins its own LRU with read-only arrays.
        state = self.__dict__.copy()
        del state["_shared"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._shared = _shared_structure(self._adjacency)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of vertices of ``H``."""
        return self._num_nodes

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Sorted tuple of undirected edges ``(v, w)`` with ``v < w``."""
        return self._edges

    @property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples -- the graph's structural key.

        Built once at construction; hot callers (the trial-stack grouping
        key, :func:`repro.core.fast_batch.stack_compatibility`) compare it
        by identity-stable tuple instead of regathering ``neighbors(v)``
        per vertex per trial.
        """
        return self._adjacency

    def edge_index_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(left, right)`` int64 endpoint arrays over :attr:`edges`.

        Shared by every graph with this adjacency, following the same
        pattern as ``DelayModel._edge_array_cache``: array consumers (skew
        reducers, layer-0 schedules) gather the Python edge tuples once
        per shape instead of once per call.
        """
        shared = self._shared
        if shared.edge_index is None:
            left = np.array([e[0] for e in self._edges], dtype=np.int64)
            right = np.array([e[1] for e in self._edges], dtype=np.int64)
            for arr in (left, right):
                arr.setflags(write=False)
            shared.edge_index = (left, right)
        return shared.edge_index

    def neighbor_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` CSR neighbor arrays (shared, read-only).

        The (sorted) neighbors of vertex ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``: one entry per directed
        edge, ``O(n + m)`` memory however skewed the degrees are.  The
        simulator lays every neighbor copy out on this entry axis.
        """
        shared = self._shared
        if shared.csr is None:
            degrees = np.fromiter(
                (len(nbs) for nbs in self._adjacency),
                dtype=np.int64,
                count=self._num_nodes,
            )
            indptr = np.zeros(self._num_nodes + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            indices = np.fromiter(
                (w for nbs in self._adjacency for w in nbs),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            for arr in (indptr, indices):
                arr.setflags(write=False)
            shared.csr = (indptr, indices)
        return shared.csr

    def neighbor_columns(self) -> Tuple[Tuple, ...]:
        """:meth:`neighbor_csr` by degree column (shared, read-only).

        :func:`degree_columns` of the CSR arrays: column ``j`` holds the
        vertices of degree ``> j``, their entries ``indptr[v] + j`` and
        the neighbors there.  Folding the columns in order visits every
        entry once, on ``max_degree()`` vectors no longer than ``n``:
        the simulator's neighbor plan.
        """
        shared = self._shared
        if shared.columns is None:
            shared.columns = degree_columns(*self.neighbor_csr())
        return shared.columns

    def nodes(self) -> range:
        """Iterable over vertices."""
        return range(self._num_nodes)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return len(self._adjacency[v])

    def min_degree(self) -> int:
        """Minimum degree over all vertices."""
        return min(len(nbrs) for nbrs in self._adjacency)

    def max_degree(self) -> int:
        """Maximum degree over all vertices."""
        return max(len(nbrs) for nbrs in self._adjacency)

    def has_edge(self, v: int, w: int) -> bool:
        """Whether ``{v, w}`` is an edge of ``H``."""
        return w in self._adjacency[v]

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def distances_from(self, source: int) -> np.ndarray:
        """BFS distances from ``source`` as a read-only int64 array.

        Runs :func:`_bfs` over the :meth:`neighbor_csr` arrays once per
        adjacency and source: graphs of equal adjacency share the result,
        so a sweep's fresh base graphs (and regional-outage compilation,
        which calls :meth:`ball` per event) stay cheap.  Unreached
        vertices hold ``-1``.
        """
        distances = self._shared.distances
        cached = distances.get(source)
        if cached is None:
            indptr, indices = self.neighbor_csr()
            cached = distances[source] = _bfs(indptr, indices, source)
        return cached

    def distance(self, v: int, w: int) -> int:
        """Hop distance ``d(v, w)`` in ``H``."""
        return int(self.distances_from(v)[w])

    @property
    def diameter(self) -> int:
        """Diameter ``D`` of ``H`` (1 for the single-node graph)."""
        if self._diameter is None:
            worst = max(
                int(self.distances_from(v).max())
                for v in range(self._num_nodes)
            )
            self._diameter = max(worst, 1)
        return self._diameter

    def ball(self, center: int, radius: int) -> List[int]:
        """Vertices within hop distance ``radius`` of ``center``.

        Returned as plain Python ints: campaign epoch state keys hash
        these values, and they must compare equal across processes
        regardless of NumPy scalar types.
        """
        dist = self.distances_from(center)
        inside = np.flatnonzero((dist >= 0) & (dist <= radius))
        return [int(v) for v in inside]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BaseGraph(name={self.name!r}, n={self._num_nodes}, "
            f"m={len(self._edges)}, D={self.diameter})"
        )


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
def replicated_line(length: int) -> BaseGraph:
    """The paper's base graph (Figure 2): a line with replicated endpoints.

    ``length`` is the number of interior path nodes (``>= 2``).  Nodes
    ``0 .. length-1`` form the path; node ``length`` replicates node ``0``
    (adjacent to ``0`` and ``1``) and node ``length + 1`` replicates node
    ``length - 1`` (adjacent to ``length - 1`` and ``length - 2``).

    Every node has degree at least 2, nodes ``1`` and ``length - 2`` have
    degree 3 (hence in-degree 4 in the layered graph -- the "some 4" of
    Figure 3).

    The diameter is set in closed form instead of by all-pairs BFS: the
    path's ends, and the two twins, are ``length - 1`` hops apart, and
    for ``length == 2`` the twins are 2 hops apart through either path
    node.
    """
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    edges = [(i, i + 1) for i in range(length - 1)]
    left_twin = length
    right_twin = length + 1
    edges.append((left_twin, 0))
    edges.append((left_twin, 1))
    edges.append((right_twin, length - 1))
    if length >= 3:
        edges.append((right_twin, length - 2))
    else:
        # For length == 2 the twins attach to both path nodes; avoid the
        # duplicate (right_twin, 0) that the generic rule would create.
        edges.append((right_twin, 0))
    graph = BaseGraph(length + 2, edges, name=f"replicated_line({length})")
    graph._diameter = length - 1 if length >= 3 else 2
    return graph


def cycle_graph(num_nodes: int) -> BaseGraph:
    """Cycle on ``num_nodes >= 3`` vertices (the theoretically cleanest H)."""
    if num_nodes < 3:
        raise ValueError(f"cycle needs >= 3 nodes, got {num_nodes}")
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    return BaseGraph(num_nodes, edges, name=f"cycle({num_nodes})")


def complete_graph(num_nodes: int) -> BaseGraph:
    """Complete graph (diameter 1); the degenerate ``D = 1`` regime."""
    if num_nodes < 3:
        raise ValueError(f"complete graph needs >= 3 nodes, got {num_nodes}")
    edges = [
        (v, w) for v in range(num_nodes) for w in range(v + 1, num_nodes)
    ]
    return BaseGraph(num_nodes, edges, name=f"complete({num_nodes})")


def path_graph(num_nodes: int) -> BaseGraph:
    """Plain path; violates minimum degree 2 and is only for degenerate tests."""
    if num_nodes < 2:
        raise ValueError(f"path needs >= 2 nodes, got {num_nodes}")
    edges = [(i, i + 1) for i in range(num_nodes - 1)]
    return BaseGraph(
        num_nodes, edges, require_min_degree_2=False, name=f"path({num_nodes})"
    )


def star_graph(num_leaves: int) -> BaseGraph:
    """Star graph; violates minimum degree 2 and is only for degenerate tests."""
    if num_leaves < 2:
        raise ValueError(f"star needs >= 2 leaves, got {num_leaves}")
    edges = [(0, i) for i in range(1, num_leaves + 1)]
    return BaseGraph(
        num_leaves + 1,
        edges,
        require_min_degree_2=False,
        name=f"star({num_leaves})",
    )


def torus_graph(rows: int, cols: int) -> BaseGraph:
    """2D torus grid; an alternative minimum-degree-4 base graph."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows >= 3 and cols >= 3")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add((min(v, right), max(v, right)))
            edges.add((min(v, down), max(v, down)))
    return BaseGraph(rows * cols, sorted(edges), name=f"torus({rows}x{cols})")
