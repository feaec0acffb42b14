#!/usr/bin/env python3
"""A million-node layered graph through the fast path.

A layout that padded every vertex row to the maximum degree would let
one well-connected hub widen *every* row of ``(L, W, max_deg)`` delay
tensors: a hub-skewed graph at W = 250,000 would need tens of GiB
before the first pulse fires.  The simulator keeps every neighbor copy
on the graph's CSR entry axis instead (``O(n + m)``) and folds it one
degree column at a time, so the same sweep fits in a few hundred MiB.

This script builds a sparse circulant base graph with one high-degree
hub, stacks it four layers deep (10^6 simulated nodes), and runs a
multi-pulse sweep with streamed statistics (``store_times=False``, so the
``(P, L, W)`` pulse-time block is never materialized either).  The test
suite pins the column fold bitwise against the masked reduction over a
padded table on hub graphs, so the big run's numbers are backed by that
guarantee.

Run:  python examples/sparse_sweep.py
"""

import time

from repro.clocks import uniform_random_rates
from repro.core.fast import FastSimulation
from repro.core.layer0 import JitteredLayer0
from repro.delays.models import UniformDelayModel
from repro.params import Parameters
from repro.topology import sparse_base_graph, sparse_layered

PARAMS = Parameters(d=1.0, u=0.05, vartheta=1.01, Lambda=2.5)
NUM_PULSES = 3


def simulation(graph):
    # Jittered layer 0 and drifting clocks: the perfectly symmetric
    # setup (PerfectLayer0 + unit rates) synchronizes exactly and shows
    # a skew of 0.0, which makes for a boring demonstration.
    rates = {
        node: clock.rate
        for node, clock in uniform_random_rates(
            list(graph.nodes()), PARAMS.vartheta, rng_or_seed=5
        ).items()
    }
    return FastSimulation(
        graph,
        PARAMS,
        delay_model=UniformDelayModel(PARAMS.d, PARAMS.u),
        clock_rates=rates,
        layer0=JitteredLayer0(
            PARAMS.Lambda, graph.width, PARAMS.kappa / 2.0, seed=7
        ),
    )


def main() -> None:
    # --------------------------------------------------------------
    # 250,000-vertex base, 4 layers = 10^6 nodes.
    # --------------------------------------------------------------
    width, num_layers, hub_degree = 250_000, 4, 4_096
    build_start = time.perf_counter()
    base = sparse_base_graph(width, num_hubs=1, hub_degree=hub_degree)
    graph = sparse_layered(
        width, num_layers, num_hubs=1, hub_degree=hub_degree
    )
    build = time.perf_counter() - build_start

    nnz = 2 * len(base.edges)
    padded_plane = width * base.max_degree() * 8  # one (W, max_deg) float64
    print(
        f"graph: {base.name} x {num_layers} layers\n"
        f"  simulated nodes      {width * num_layers:,}\n"
        f"  undirected edges     {len(base.edges):,} per layer\n"
        f"  max degree           {base.max_degree():,} (hub) "
        f"vs median 4 (ring)\n"
        f"  CSR entry axis       {nnz:,} neighbor copies "
        f"({nnz * 8 / 2**20:.0f} MiB per per-copy array)\n"
        f"  degree columns       {len(base.neighbor_columns()):,} "
        f"(no padded table; one (W, max_deg) float64 would be "
        f"{padded_plane / 2**30:.1f} GiB)\n"
        f"  build time           {build:.1f}s"
    )

    sweep_start = time.perf_counter()
    result = simulation(graph).run(NUM_PULSES, store_times=False)
    sweep = time.perf_counter() - sweep_start

    # The exact diameter needs all-pairs BFS (250k sweeps); a single
    # eccentricity gives the classic 2-approximation upper bound, and
    # the Theorem 1.1 bound is monotone in D, so it stays a valid bound.
    diameter_ub = 2 * int(base.distances_from(0).max())
    bound = PARAMS.local_skew_bound(diameter_ub)
    print(
        f"\nswept {NUM_PULSES} pulses in {sweep:.1f}s "
        f"({NUM_PULSES * num_layers * width / sweep:,.0f} node-steps/s)\n"
        f"  max local skew       {result.max_local_skew():.4f}\n"
        f"  Theorem 1.1 bound    {bound:.4f} (D <= {diameter_ub})"
    )
    assert result.max_local_skew() <= bound


if __name__ == "__main__":
    main()
