"""Tests for repro.topology: base graphs and the layered DAG."""

import pickle
import sys
import threading
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest

import repro.topology.base_graph as base_graph_mod
from repro.experiments.common import standard_config
from repro.topology import (
    BaseGraph,
    LayeredGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    replicated_line,
    sparse_base_graph,
    sparse_layered,
    star_graph,
    torus_graph,
)


class TestBaseGraphConstruction:
    def test_triangle(self):
        g = BaseGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.num_nodes == 3
        assert g.min_degree() == 2
        assert g.diameter == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            BaseGraph(3, [(0, 0), (0, 1), (1, 2), (0, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            BaseGraph(3, [(0, 1), (1, 0), (1, 2), (0, 2)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            BaseGraph(2, [(0, 5)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            BaseGraph(4, [(0, 1), (2, 3)], require_min_degree_2=False)

    def test_rejects_min_degree_below_2(self):
        with pytest.raises(ValueError, match="minimum degree 2"):
            BaseGraph(3, [(0, 1), (1, 2)])

    def test_min_degree_check_can_be_disabled(self):
        g = BaseGraph(3, [(0, 1), (1, 2)], require_min_degree_2=False)
        assert g.min_degree() == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BaseGraph(0, [])

    def test_neighbors_sorted(self):
        g = BaseGraph(4, [(0, 3), (0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
        assert g.neighbors(0) == (1, 2, 3)

    def test_has_edge(self):
        g = cycle_graph(5)
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 4)
        assert not g.has_edge(0, 2)


class TestFactories:
    def test_replicated_line_structure(self):
        g = replicated_line(5)
        # 5 path nodes + 2 twins.
        assert g.num_nodes == 7
        assert g.min_degree() == 2
        # Twins: node 5 adjacent to {0, 1}, node 6 adjacent to {3, 4}.
        assert g.neighbors(5) == (0, 1)
        assert g.neighbors(6) == (3, 4)
        # Figure 3's "some degree 3": the nodes next to the boundary.
        assert g.degree(1) == 3
        assert g.degree(3) == 3
        assert g.degree(2) == 2

    def test_replicated_line_diameter(self):
        # Twin-to-twin distance dominates: D = m - 1 (except the tiny m=2
        # case where the two twins are 2 hops apart).
        for m in (2, 3, 5, 9, 16):
            g = replicated_line(m)
            assert g.diameter == max(m - 1, 2)

    def test_replicated_line_minimum_length(self):
        with pytest.raises(ValueError):
            replicated_line(1)

    def test_replicated_line_length_2(self):
        g = replicated_line(2)
        assert g.num_nodes == 4
        assert g.min_degree() == 2

    def test_cycle(self):
        g = cycle_graph(8)
        assert g.num_nodes == 8
        assert all(g.degree(v) == 2 for v in g.nodes())
        assert g.diameter == 4

    def test_cycle_minimum_size(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(5)
        assert g.diameter == 1
        assert all(g.degree(v) == 4 for v in g.nodes())

    def test_torus(self):
        g = torus_graph(3, 4)
        assert g.num_nodes == 12
        assert all(g.degree(v) == 4 for v in g.nodes())

    def test_torus_minimum_size(self):
        with pytest.raises(ValueError):
            torus_graph(2, 5)

    def test_path_and_star_bypass_degree_check(self):
        assert path_graph(4).min_degree() == 1
        assert star_graph(3).min_degree() == 1


class TestDistances:
    def test_distance_symmetric(self):
        g = replicated_line(6)
        for v in g.nodes():
            for w in g.nodes():
                assert g.distance(v, w) == g.distance(w, v)

    def test_distance_triangle_inequality(self):
        g = replicated_line(6)
        nodes = list(g.nodes())
        for v in nodes:
            for w in nodes:
                for x in nodes:
                    assert g.distance(v, w) <= g.distance(v, x) + g.distance(
                        x, w
                    )

    def test_distance_zero_to_self(self):
        g = cycle_graph(5)
        assert all(g.distance(v, v) == 0 for v in g.nodes())

    def test_adjacent_distance_one(self):
        g = cycle_graph(7)
        for v, w in g.edges:
            assert g.distance(v, w) == 1

    def test_replicated_line_closed_form_diameter(self):
        """The closed-form diameter agrees with a BFS over all sources."""

        def bfs_diameter(graph):
            adjacency = graph.adjacency
            worst = 0
            for source in graph.nodes():
                dist = {source: 0}
                frontier = [source]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for y in adjacency[x]:
                            if y not in dist:
                                dist[y] = dist[x] + 1
                                nxt.append(y)
                    frontier = nxt
                worst = max(worst, max(dist.values()))
            return worst

        for length in range(2, 261):
            g = replicated_line(length)
            assert g.diameter == bfs_diameter(g), length

    def test_ball(self):
        g = cycle_graph(8)
        assert sorted(g.ball(0, 1)) == [0, 1, 7]
        assert sorted(g.ball(0, 2)) == [0, 1, 2, 6, 7]
        assert len(g.ball(0, 4)) == 8


class TestLayeredGraph:
    def test_sizes(self):
        base = replicated_line(4)
        g = LayeredGraph(base, 5)
        assert g.width == 6
        assert g.num_nodes == 30
        assert g.diameter == base.diameter

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            LayeredGraph(replicated_line(4), 0)

    def test_index_roundtrip(self):
        g = LayeredGraph(replicated_line(4), 5)
        for node in g.nodes():
            assert g.node_at(g.index(node)) == node

    def test_index_out_of_range(self):
        g = LayeredGraph(replicated_line(4), 5)
        with pytest.raises(ValueError):
            g.index((0, 5))
        with pytest.raises(ValueError):
            g.node_at(g.num_nodes)

    def test_layer0_has_no_predecessors(self):
        g = LayeredGraph(cycle_graph(5), 3)
        for v in range(5):
            assert g.predecessors((v, 0)) == []
            assert g.in_degree((v, 0)) == 0

    def test_predecessors_own_copy_first(self):
        g = LayeredGraph(cycle_graph(5), 3)
        preds = g.predecessors((2, 1))
        assert preds[0] == (2, 0)
        assert set(preds[1:]) == {(1, 0), (3, 0)}

    def test_neighbor_predecessors_excludes_own(self):
        g = LayeredGraph(cycle_graph(5), 3)
        assert (2, 0) not in g.neighbor_predecessors((2, 1))

    def test_in_degree_matches_paper(self):
        # "Most nodes have in- and out-degree 3, some 4" (Figure 3).
        g = LayeredGraph(replicated_line(6), 3)
        degrees = [g.in_degree((v, 1)) for v in g.base.nodes()]
        assert sorted(set(degrees)) == [3, 4]
        assert degrees.count(3) > degrees.count(4)

    def test_successors_mirror_predecessors(self):
        g = LayeredGraph(replicated_line(4), 4)
        for layer in range(3):
            for v in g.base.nodes():
                for succ in g.successors((v, layer)):
                    assert (v, layer) in g.predecessors(succ)

    def test_last_layer_no_successors(self):
        g = LayeredGraph(cycle_graph(4), 3)
        assert g.successors((0, 2)) == []
        assert g.out_degree((0, 2)) == 0

    def test_edges_between_count(self):
        base = cycle_graph(5)
        g = LayeredGraph(base, 3)
        edges = list(g.edges_between(0))
        # Each node has deg+1 = 3 outgoing edges.
        assert len(edges) == 15
        assert list(g.edges_between(2)) == []  # last layer

    def test_intra_layer_pairs(self):
        base = cycle_graph(5)
        g = LayeredGraph(base, 2)
        pairs = list(g.intra_layer_pairs(1))
        assert len(pairs) == len(base.edges)
        assert all(a[1] == 1 and b[1] == 1 for a, b in pairs)


class TestAncestors:
    def _brute_force_ancestors(self, g, node, distance):
        """BFS backwards over explicit predecessor edges."""
        frontier = {node}
        found = set()
        for _ in range(distance):
            nxt = set()
            for x in frontier:
                for p in g.predecessors(x):
                    if p not in found:
                        found.add(p)
                        nxt.add(p)
            frontier = nxt
        return found

    @pytest.mark.parametrize("distance", [0, 1, 2, 3, 5])
    def test_matches_brute_force(self, distance):
        g = LayeredGraph(replicated_line(5), 7)
        node = (3, 6)
        assert g.ancestors_within(node, distance) == self._brute_force_ancestors(
            g, node, distance
        )

    def test_count_matches_set(self):
        g = LayeredGraph(cycle_graph(6), 5)
        node = (2, 4)
        for distance in range(5):
            assert g.count_ancestors_within(node, distance) == len(
                g.ancestors_within(node, distance)
            )

    def test_excludes_self(self):
        g = LayeredGraph(cycle_graph(6), 5)
        assert (2, 4) not in g.ancestors_within((2, 4), 3)

    def test_rejects_negative_distance(self):
        g = LayeredGraph(cycle_graph(6), 5)
        with pytest.raises(ValueError):
            g.ancestors_within((0, 1), -1)

    def test_growth_is_linear_in_distance(self):
        # The paper: the d-hop ancestry grows ~quadratically in d (linearly
        # per layer) on grid-like graphs -- the hinge of Observation 4.34.
        g = LayeredGraph(cycle_graph(30), 20)
        counts = [g.count_ancestors_within((0, 19), j) for j in (2, 4, 8)]
        # Quadratic: quadrupling distance ~16x the count.
        assert counts[2] > 3 * counts[1] > 6 * counts[0]


class TestNeighborCSR:
    """The cached CSR representation mirrors the adjacency exactly."""

    def _check_csr(self, g):
        indptr, indices = g.neighbor_csr()
        assert indptr.shape == (g.num_nodes + 1,)
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        assert len(indices) == 2 * len(g.edges)
        for v in range(g.num_nodes):
            segment = indices[indptr[v]: indptr[v + 1]]
            assert tuple(segment) == g.neighbors(v)  # sorted-neighbor order

    def test_matches_neighbors_and_edges(self):
        for g in (cycle_graph(8), complete_graph(5), replicated_line(4),
                  torus_graph(3, 4), sparse_base_graph(40, num_hubs=1)):
            self._check_csr(g)

    def test_cached_and_write_protected(self):
        g = cycle_graph(6)
        first = g.neighbor_csr()
        assert all(a is b for a, b in zip(first, g.neighbor_csr()))
        for arr in first:
            with pytest.raises(ValueError):
                arr[0] = 99

    @pytest.mark.parametrize(
        "g",
        [replicated_line(9), cycle_graph(6), sparse_base_graph(40, num_hubs=1, hub_degree=9)],
        ids=["replicated_line", "cycle", "hub"],
    )
    def test_degree_columns_visit_every_entry_once(self, g):
        indptr, indices = g.neighbor_csr()
        degree = np.diff(indptr)
        columns = g.neighbor_columns()
        assert columns is g.neighbor_columns()
        assert len(columns) == g.max_degree()
        for j, (entries, sources, lanes, mask) in enumerate(columns):
            want = np.flatnonzero(degree > j)
            np.testing.assert_array_equal(np.arange(g.num_nodes) if lanes is None else lanes, want)
            np.testing.assert_array_equal(entries, indptr[want] + j)
            np.testing.assert_array_equal(sources, indices[entries])
            assert mask is None
            for arr in (entries, sources) + (() if lanes is None else (lanes,)):
                assert not arr.flags.writeable
        everything = np.concatenate([column[0] for column in columns])
        np.testing.assert_array_equal(np.sort(everything), np.arange(indices.size))

    def test_degree_columns_drop_unused_columns_and_full_masks(self):
        # Two trials on a union axis of 3, 1 and 2 slots: the second
        # column is valid in trial 0 only, the third in none.
        indptr = np.array([0, 3, 4, 6])
        sources = np.array([[1, 2, 0, 0, 0, 1], [2, 0, 0, 2, 1, 0]])
        valid = np.array([[1, 1, 0, 1, 1, 0], [1, 0, 0, 1, 1, 0]], dtype=bool)
        columns = base_graph_mod.degree_columns(indptr, sources, valid)
        assert len(columns) == 2
        (e0, s0, l0, m0), (e1, s1, l1, m1) = columns
        np.testing.assert_array_equal(e0, [0, 3, 4])
        assert l0 is None and m0 is None
        np.testing.assert_array_equal(s0, sources[:, [0, 3, 4]])
        np.testing.assert_array_equal(l1, [0, 2])
        np.testing.assert_array_equal(e1, [1, 5])
        np.testing.assert_array_equal(m1, [[True, False], [False, False]])

    def test_degree_columns_on_a_lane_subset(self):
        # A lane-compacted plane: the lanes are positions in ``vertices``
        # and the entries stay on the whole axis.
        g = sparse_base_graph(40, num_hubs=1, hub_degree=9)
        indptr, indices = g.neighbor_csr()
        vertices = np.array([1, 7, 39])  # degree 4, 4 and the hub's 9
        columns = base_graph_mod.degree_columns(indptr, indices, vertices=vertices)
        assert len(columns) == 9
        for j, (entries, sources, lanes, mask) in enumerate(columns):
            at = np.arange(3) if lanes is None else lanes
            np.testing.assert_array_equal(entries, indptr[vertices[at]] + j)
            np.testing.assert_array_equal(sources, indices[entries])
            assert mask is None
        assert columns[3][2] is None
        np.testing.assert_array_equal(columns[4][2], [2])

    def test_distances_match_neighbor_bfs(self):
        # The vectorized frontier BFS against a hand-rolled queue BFS.
        from collections import deque

        for g in (sparse_base_graph(30, num_hubs=2, hub_degree=5),
                  torus_graph(4, 5)):
            for source in (0, g.num_nodes - 1):
                dist = {source: 0}
                queue = deque([source])
                while queue:
                    v = queue.popleft()
                    for w in g.neighbors(v):
                        if w not in dist:
                            dist[w] = dist[v] + 1
                            queue.append(w)
                got = g.distances_from(source)
                assert [dist[v] for v in range(g.num_nodes)] == list(got)

    def test_ball_returns_python_ints(self):
        # Campaign state keys hash ball members; numpy ints would change
        # the key equality semantics across platforms.
        members = cycle_graph(8).ball(0, 2)
        assert all(type(v) is int for v in members)


class TestSparseGraphs:
    def test_ring_is_degree_4(self):
        g = sparse_base_graph(100)
        assert g.max_degree() == 4
        assert min(len(g.neighbors(v)) for v in range(g.num_nodes)) >= 2

    def test_diameter_scales_like_sqrt(self):
        # C_n(1, s) with s ~ sqrt(n): diameter O(sqrt(n)), far below n/2.
        g = sparse_base_graph(400)
        assert g.diameter <= 4 * 20

    def test_hubs_skew_degree(self):
        g = sparse_base_graph(101, num_hubs=1, hub_degree=32)
        degrees = [len(g.neighbors(v)) for v in range(g.num_nodes)]
        assert max(degrees) == 32
        assert sorted(degrees)[g.num_nodes // 2] <= 6  # median stays tiny

    def test_hub_ids_trail_the_ring(self):
        g = sparse_base_graph(20, num_hubs=2, hub_degree=4)
        assert len(g.neighbors(18)) >= 4 and len(g.neighbors(19)) >= 4

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            sparse_base_graph(4)
        with pytest.raises(ValueError):
            sparse_base_graph(10, chord_stride=1)
        with pytest.raises(ValueError):
            sparse_base_graph(10, num_hubs=1, hub_degree=1)
        with pytest.raises(ValueError):
            sparse_base_graph(10, num_hubs=-1)

    def test_layered_constructor(self):
        g = sparse_layered(64, 3)
        assert (g.width, g.num_layers) == (64, 3)
        assert g.base.max_degree() == 4


class TestFrozenGraphCaches:
    def test_cached_neighbor_tensors_are_frozen_and_stable(self):
        base = standard_config(6).graph.base
        columns = base.neighbor_columns()
        left, right = base.edge_index_arrays()
        plan = [arr for column in columns for arr in column if arr is not None]
        for arr in plan + [left, right]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        # Revisits hand back the same objects -- one cache per graph,
        # shared across trials, stacks, and campaign epochs.
        assert base.neighbor_columns() is columns
        left2, right2 = base.edge_index_arrays()
        assert left2 is left and right2 is right

    def test_campaign_epoch_revisit_reuses_identical_tensors(self):
        """A revisited epoch state must see bit-identical adjacency.

        The chaos-campaign layer caches epoch graphs by state key; if a
        consumer mutated the shared cached tensors in between, the
        revisit would silently simulate a different topology.
        """
        from repro.faults.campaign import ChaosCampaign, EdgeFlap

        config = standard_config(6, seed=0)
        base = config.graph.base
        edge = base.edges[0]
        campaign = ChaosCampaign(
            base,
            config.graph.num_layers,
            # Down-up-down-up: pulses 1 and 3 revisit the degraded
            # state, pulses 0/2/4+ the seed state.
            [EdgeFlap(pulse=1, edge=edge), EdgeFlap(pulse=3, edge=edge)],
        )
        schedule = campaign.compile(num_pulses=6)
        by_state = {}
        for epoch in schedule.epochs:
            snap = epoch.graph.base.neighbor_csr()
            prior = by_state.setdefault(epoch.state_key, snap)
            assert prior[0] is snap[0] and prior[1] is snap[1]
            np.testing.assert_array_equal(prior[0], snap[0])
            np.testing.assert_array_equal(prior[1], snap[1])
        assert len(by_state) >= 2


class TestSharedStructure:
    """Graphs of equal adjacency share one BFS and one set of arrays."""

    @staticmethod
    def count_bfs():
        return mock.patch.object(
            base_graph_mod, "_bfs", wraps=base_graph_mod._bfs
        )

    @staticmethod
    def fresh_cache(monkeypatch):
        monkeypatch.setattr(base_graph_mod, "_structures", OrderedDict())
        return base_graph_mod

    def test_equal_adjacency_runs_one_bfs(self, monkeypatch):
        self.fresh_cache(monkeypatch)
        with self.count_bfs() as bfs:
            a = replicated_line(17)
            b = replicated_line(17)
        assert bfs.call_count == 1
        assert a is not b
        assert a.distances_from(0) is b.distances_from(0)
        assert a.neighbor_csr() is b.neighbor_csr()
        assert a.neighbor_columns() is b.neighbor_columns()
        assert a.edge_index_arrays() is b.edge_index_arrays()

    def test_distinct_adjacencies_do_not_share(self, monkeypatch):
        self.fresh_cache(monkeypatch)
        with self.count_bfs() as bfs:
            a = replicated_line(17)
            b = replicated_line(18)
            c = cycle_graph(19)
        assert bfs.call_count == 3
        assert a.neighbor_csr()[1] is not b.neighbor_csr()[1]
        assert len({a.distances_from(0).size, b.distances_from(0).size}) == 2
        np.testing.assert_array_equal(
            c.distances_from(0), [min(v, 19 - v) for v in range(19)]
        )

    def test_cache_evicts_past_its_bound_and_keeps_working(self, monkeypatch):
        module = self.fresh_cache(monkeypatch)
        bound = module._SHARED_STRUCTURES
        first = replicated_line(3)
        first_dist = first.distances_from(0)
        for length in range(4, 4 + bound):
            replicated_line(length)
        assert len(module._structures) == bound
        assert first.adjacency not in module._structures
        # A graph keeps the structure it was built with; a new graph of
        # the evicted shape gets a fresh entry with equal contents.
        assert first.distances_from(0) is first_dist
        with self.count_bfs() as bfs:
            again = replicated_line(3)
        assert bfs.call_count == 1
        assert len(module._structures) == bound
        np.testing.assert_array_equal(again.distances_from(0), first_dist)
        assert again.distances_from(0) is not first_dist

    def test_shared_arrays_are_read_only(self):
        graph = replicated_line(9)
        arrays = (
            graph.distances_from(0),
            graph.distances_from(4),
            *graph.neighbor_csr(),
            *(arr for column in graph.neighbor_columns() for arr in column[:2]),
        )
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_pickled_graph_rejoins_the_shared_structure(self):
        graph = replicated_line(9)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.adjacency == graph.adjacency
        assert clone.distances_from(0) is graph.distances_from(0)
        assert not clone.neighbor_csr()[0].flags.writeable

    def test_concurrent_builders_share_and_stay_bounded(self, monkeypatch):
        # Service jobs build configs on several threads at once; the LRU's
        # lookup/insert/evict must not lose entries or raise under a
        # small bound and frequent thread switches.
        module = self.fresh_cache(monkeypatch)
        monkeypatch.setattr(module, "_SHARED_STRUCTURES", 3)
        lengths = range(3, 9)
        expected = {n: np.array(replicated_line(n).distances_from(0)) for n in lengths}
        errors = []

        def build():
            try:
                for _ in range(100):
                    for n in lengths:
                        got = replicated_line(n).distances_from(0)
                        if not np.array_equal(got, expected[n]):
                            errors.append(n)
            except Exception as exc:  # reported through the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(module._structures) <= 3

    def test_campaign_epoch_graph_distances_match_fresh_bfs(self):
        from repro.faults.campaign import ChaosCampaign, EdgeFlap

        def python_bfs(graph, source):
            dist = [-1] * graph.num_nodes
            dist[source] = 0
            frontier = [source]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in graph.adjacency[x]:
                        if dist[y] < 0:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            return dist

        config = standard_config(6, seed=0)
        base = config.graph.base
        campaign = ChaosCampaign(
            base,
            config.graph.num_layers,
            [EdgeFlap(pulse=1, edge=base.edges[0])],
        )
        epochs = campaign.compile(num_pulses=3).epochs
        churned = [e.graph.base for e in epochs if e.graph.base is not base]
        assert churned
        for graph in churned:
            assert graph.adjacency != base.adjacency
            for source in graph.nodes():
                np.testing.assert_array_equal(
                    graph.distances_from(source), python_bfs(graph, source)
                )
