"""Tests for repro.topology: base graphs and the layered DAG."""

import numpy as np
import pytest

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
        indptr, indices, edge_slot = g.neighbor_csr()
        assert indptr.shape == (g.num_nodes + 1,)
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        assert len(indices) == 2 * len(g.edges)
        assert len(edge_slot) == len(indices)
        edges = g.edges
        for v in range(g.num_nodes):
            segment = indices[indptr[v]: indptr[v + 1]]
            assert tuple(segment) == g.neighbors(v)  # sorted-neighbor order
            for pos, w in zip(range(indptr[v], indptr[v + 1]), segment):
                assert edges[edge_slot[pos]] == (min(v, w), max(v, w))

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
        idx, valid = base.neighbor_index_arrays()
        left, right = base.edge_index_arrays()
        for arr in (idx, valid, left, right):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        # Revisits hand back the same objects -- one cache per graph,
        # shared across trials, stacks, and campaign epochs.
        idx2, valid2 = base.neighbor_index_arrays()
        assert idx2 is idx and valid2 is valid
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
            snap = epoch.graph.base.neighbor_index_arrays()
            prior = by_state.setdefault(epoch.state_key, snap)
            assert prior[0] is snap[0] and prior[1] is snap[1]
            np.testing.assert_array_equal(prior[0], snap[0])
            np.testing.assert_array_equal(prior[1], snap[1])
        assert len(by_state) >= 2
