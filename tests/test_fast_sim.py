"""Tests for repro.core.fast: the layer-recurrence simulator, fault-free."""

import math
from unittest import mock

import numpy as np
import pytest

import repro.core.fast as fast_mod

from repro.analysis.skew import max_inter_layer_skew
from repro.clocks import uniform_random_rates
from repro.core.correction import CorrectionPolicy
from repro.core.fast import BRANCH_CODES, FastSimulation
from repro.core.layer0 import JitteredLayer0
from repro.delays import StaticDelayModel
from repro.params import Parameters
from repro.topology import LayeredGraph, cycle_graph, replicated_line

PARAMS = Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0)


#: FastResult arrays the scalar/vectorized cross-validation compares.
RESULT_ARRAYS = ("times", "protocol_times", "corrections", "effective_corrections")


def assert_results_equivalent(vec, scalar, check_fault_sends=False):
    """Assert two FastResults agree to 1e-9 (shared by the sim/fault tests)."""
    for attr in RESULT_ARRAYS:
        np.testing.assert_allclose(
            getattr(vec, attr),
            getattr(scalar, attr),
            rtol=0.0,
            atol=1e-9,
            equal_nan=True,
            err_msg=attr,
        )
    assert np.array_equal(vec.branches, scalar.branches)
    if not check_fault_sends:
        return
    assert set(vec.fault_sends) == set(scalar.fault_sends)
    for edge, pulses in vec.fault_sends.items():
        reference = scalar.fault_sends[edge]
        assert set(pulses) == set(reference)
        for pulse, send in pulses.items():
            other = reference[pulse]
            if send is None or other is None:
                assert send is other
            else:
                assert send == pytest.approx(other, abs=1e-9)


def noisy_sim(diameter=8, layers=None, seed=0, **kwargs):
    base = replicated_line(diameter + 1)
    graph = LayeredGraph(base, layers or diameter + 1)
    delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=seed)
    rates = {
        node: clock.rate
        for node, clock in uniform_random_rates(
            graph.nodes(), PARAMS.vartheta, rng_or_seed=seed + 1
        ).items()
    }
    return FastSimulation(
        graph, PARAMS, delay_model=delays, clock_rates=rates, **kwargs
    )


class TestIdealExecution:
    def test_uniform_setup_has_zero_skew(self):
        graph = LayeredGraph(replicated_line(6), 6)
        sim = FastSimulation(graph, PARAMS)
        result = sim.run(3)
        assert result.max_local_skew() == 0.0
        assert result.global_skew() == 0.0

    def test_every_node_pulses(self):
        graph = LayeredGraph(replicated_line(6), 6)
        result = FastSimulation(graph, PARAMS).run(3)
        assert not np.isnan(result.times).any()

    def test_layer_latency_about_lambda(self):
        # Each layer forwards about Lambda - u/2 after the previous.
        graph = LayeredGraph(replicated_line(6), 6)
        result = FastSimulation(graph, PARAMS).run(2)
        gaps = result.times[0, 1:, 0] - result.times[0, :-1, 0]
        assert np.all(np.abs(gaps - PARAMS.Lambda) < 3 * PARAMS.kappa + PARAMS.u)

    def test_period_is_lambda(self):
        graph = LayeredGraph(replicated_line(6), 6)
        result = FastSimulation(graph, PARAMS).run(3)
        periods = np.diff(result.times, axis=0)
        assert np.allclose(periods, PARAMS.Lambda)

    def test_rejects_zero_pulses(self):
        graph = LayeredGraph(replicated_line(6), 6)
        with pytest.raises(ValueError):
            FastSimulation(graph, PARAMS).run(0)

    def test_rejects_unknown_algorithm(self):
        graph = LayeredGraph(replicated_line(6), 6)
        with pytest.raises(ValueError):
            FastSimulation(graph, PARAMS, algorithm="bogus")


class TestNoisyExecution:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_local_skew_within_theorem_11_bound(self, seed):
        sim = noisy_sim(diameter=8, seed=seed)
        result = sim.run(4)
        assert result.max_local_skew() <= PARAMS.local_skew_bound(8)

    def test_global_skew_within_bound(self):
        result = noisy_sim(diameter=8).run(4)
        assert result.global_skew() <= PARAMS.global_skew_bound(8)

    def test_inter_layer_skew_bounded(self):
        result = noisy_sim(diameter=8).run(4)
        assert max_inter_layer_skew(result) <= PARAMS.local_skew_bound(8)

    def test_lemma_d3_step_bounds(self):
        """Lemma D.3: d - u + (Lambda - d - C)/vt <= t_{v,l} - t_{v,l-1}
        <= Lambda - C for correct nodes."""
        result = noisy_sim(diameter=6).run(3)
        graph = result.graph
        for k in range(3):
            for layer in range(1, graph.num_layers):
                for v in graph.base.nodes():
                    c = result.effective_corrections[k, layer, v]
                    if math.isnan(c):
                        continue
                    step = (
                        result.times[k, layer, v]
                        - result.times[k, layer - 1, v]
                    )
                    upper = PARAMS.Lambda - c + 1e-9
                    lower = (
                        PARAMS.d
                        - PARAMS.u
                        + (PARAMS.Lambda - PARAMS.d - c) / PARAMS.vartheta
                        - 1e-9
                    )
                    assert lower <= step <= upper

    def test_lemma_d2_correction_bound(self):
        """Lemma D.2: C_{v,l} <= Lambda - d."""
        result = noisy_sim(diameter=8).run(3)
        finite = result.corrections[np.isfinite(result.corrections)]
        assert np.all(finite <= PARAMS.Lambda - PARAMS.d + 1e-9)

    def test_jittered_input_converges(self):
        # Moderate input jitter is absorbed within a few layers.
        graph = LayeredGraph(replicated_line(8), 20)
        layer0 = JitteredLayer0(
            PARAMS.Lambda, graph.width, jitter_bound=3 * PARAMS.kappa, seed=3
        )
        delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=0)
        result = FastSimulation(
            graph, PARAMS, delay_model=delays, layer0=layer0
        ).run(2)
        from repro.analysis.skew import local_skew_per_layer

        skews = local_skew_per_layer(result)
        assert skews[-1] < skews[0]
        assert skews[-1] <= PARAMS.local_skew_bound(graph.diameter)

    def test_branch_codes_cover_run(self):
        result = noisy_sim(diameter=8).run(3)
        seen = set(np.unique(result.branches))
        assert BRANCH_CODES["layer0"] in seen
        # Correction branches dominate in fault-free noisy runs.
        assert (
            BRANCH_CODES["mid"] in seen
            or BRANCH_CODES["low"] in seen
            or BRANCH_CODES["high"] in seen
        )
        assert BRANCH_CODES["none"] not in seen

    def test_deterministic(self):
        a = noisy_sim(diameter=6, seed=4).run(3)
        b = noisy_sim(diameter=6, seed=4).run(3)
        assert np.array_equal(a.times, b.times)

    def test_cycle_base_graph(self):
        graph = LayeredGraph(cycle_graph(10), 10)
        delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=0)
        result = FastSimulation(graph, PARAMS, delay_model=delays).run(3)
        assert result.max_local_skew() <= PARAMS.local_skew_bound(5)


class TestSimplifiedEquivalence:
    """Lemma B.2: without faults, Algorithms 1 and 3 behave alike.

    The pseudocode equivalence is exact except in a ~kappa-wide regime of
    very late own-copies (see the discussion in repro.core.fast); the test
    asserts agreement within one kappa.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agreement_within_kappa(self, seed):
        full = noisy_sim(diameter=8, seed=seed, algorithm="full").run(3)
        simple = noisy_sim(diameter=8, seed=seed, algorithm="simplified").run(3)
        diff = np.abs(full.times - simple.times)
        assert np.nanmax(diff) <= PARAMS.kappa + 1e-9

    def test_exact_agreement_in_ideal_setup(self):
        graph = LayeredGraph(replicated_line(6), 6)
        full = FastSimulation(graph, PARAMS, algorithm="full").run(3)
        simple = FastSimulation(graph, PARAMS, algorithm="simplified").run(3)
        assert np.array_equal(full.times, simple.times)


class TestVectorizedCrossValidation:
    """The array kernel must match the scalar replay to float precision."""

    def assert_equivalent(self, vec, scalar):
        assert_results_equivalent(vec, scalar)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scalar_on_random_rates_and_delays(self, seed):
        vec = noisy_sim(diameter=8, seed=seed).run(4)
        scalar = noisy_sim(diameter=8, seed=seed, vectorize=False).run(4)
        self.assert_equivalent(vec, scalar)

    def test_matches_scalar_on_cycle_base_graph(self):
        def build(vectorize):
            graph = LayeredGraph(cycle_graph(10), 10)
            delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=2)
            return FastSimulation(
                graph, PARAMS, delay_model=delays, vectorize=vectorize
            ).run(3)

        self.assert_equivalent(build(True), build(False))

    def test_matches_scalar_with_jittered_layer0(self):
        def build(vectorize):
            graph = LayeredGraph(replicated_line(8), 12)
            layer0 = JitteredLayer0(
                PARAMS.Lambda, graph.width, jitter_bound=3 * PARAMS.kappa, seed=5
            )
            delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=1)
            return FastSimulation(
                graph, PARAMS, delay_model=delays, layer0=layer0,
                vectorize=vectorize,
            ).run(3)

        self.assert_equivalent(build(True), build(False))

    def test_matches_scalar_with_continuous_policy(self):
        policy = CorrectionPolicy(discretize=False)
        vec = noisy_sim(diameter=8, seed=1, policy=policy).run(3)
        scalar = noisy_sim(
            diameter=8, seed=1, policy=policy, vectorize=False
        ).run(3)
        self.assert_equivalent(vec, scalar)

    def test_swapping_delay_model_between_runs_invalidates_caches(self):
        # The sweep caches per-layer delay/rate arrays across runs; swapping
        # the provider must not serve stale arrays (regression test).
        graph = LayeredGraph(replicated_line(6), 6)
        sim = FastSimulation(
            graph, PARAMS, delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=0)
        )
        sim.run(2)
        sim.delay_model = StaticDelayModel(PARAMS.d, PARAMS.u, seed=99)
        swapped = sim.run(2)
        fresh = FastSimulation(
            graph, PARAMS,
            delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=99),
            vectorize=False,
        ).run(2)
        self.assert_equivalent(swapped, fresh)

    def test_mutating_rates_dict_between_runs_is_honored(self):
        # The rate cache is rebuilt per run, so in-place edits to a rates
        # dict between runs must reach the kernel (regression test).
        graph = LayeredGraph(replicated_line(6), 6)
        rates = {node: 1.0 for node in graph.nodes()}
        sim = FastSimulation(graph, PARAMS, clock_rates=rates)
        sim.run(2)
        for node in rates:
            rates[node] = 1.0005
        mutated = sim.run(2)
        fresh = FastSimulation(
            graph, PARAMS, clock_rates=dict(rates), vectorize=False
        ).run(2)
        self.assert_equivalent(mutated, fresh)

    def test_matches_scalar_with_callable_rates(self):
        def rates(node, pulse):
            v, layer = node
            return 1.0 + 0.0008 * ((v * 31 + layer * 7 + pulse) % 11) / 11.0

        def build(vectorize):
            graph = LayeredGraph(replicated_line(8), 8)
            delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=0)
            return FastSimulation(
                graph, PARAMS, delay_model=delays, clock_rates=rates,
                vectorize=vectorize,
            ).run(3)

        self.assert_equivalent(build(True), build(False))


class TestPolicies:
    def test_continuous_policy_still_bounded(self):
        result = noisy_sim(
            diameter=8, policy=CorrectionPolicy(discretize=False)
        ).run(3)
        assert result.max_local_skew() <= PARAMS.local_skew_bound(8)

    def test_rate_provider_callable(self):
        graph = LayeredGraph(replicated_line(6), 6)
        sim = FastSimulation(
            graph, PARAMS, clock_rates=lambda node, pulse: 1.0005
        )
        result = sim.run(2)
        assert not np.isnan(result.times).any()

    def test_result_accessors(self):
        result = noisy_sim(diameter=6).run(2)
        node = (2, 3)
        assert result.pulse_time(node, 1) == result.times[1, 3, 2]
        assert result.faulty_mask.sum() == 0


# ----------------------------------------------------------------------
# Neighbor reductions of the layer-step kernels
# ----------------------------------------------------------------------
def _reductions(kernel, *args):
    """The ``(H_min, H_max)`` a layer-step kernel hands its register step."""
    captured = []

    def capture(h_own, h_min, h_max, *rest):
        captured.append((h_min, h_max))

    with mock.patch.object(fast_mod, "_registers_step", capture):
        kernel(*args, None, None, False)
    (reduced,) = captured
    return reduced


def _dense_reductions(prev, nb_idx, nb_valid, nb_delay, rate):
    return _reductions(
        fast_mod._layer_step_kernel,
        prev, np.zeros_like(prev), nb_delay, rate, nb_idx, nb_valid,
        np.ones(prev.shape, dtype=bool),
    )


def _csr_reductions(prev, indices, indptr, nb_delay, rate, owner, has_nbs):
    return _reductions(
        fast_mod._layer_step_kernel_csr,
        prev, np.zeros_like(prev), nb_delay, rate, indptr, indices, owner,
        has_nbs, np.ones(prev.shape, dtype=bool),
    )


class TestKernelReductions:
    def test_masked_reductions_ignore_invalid_lanes(self):
        # Zero send times and unit rates: the lane values are the delays.
        vals = np.array([[1.0, -5.0, 3.0], [2.0, 7.0, 0.5]])
        valid = np.array([[True, False, True], [True, True, False]])
        h_min, h_max = _dense_reductions(
            np.zeros(2), np.zeros((2, 3), dtype=np.int64), valid, vals,
            np.ones(2),
        )
        np.testing.assert_array_equal(h_min, [1.0, 2.0])
        np.testing.assert_array_equal(h_max, [3.0, 7.0])

    def test_neighbor_min_max_matches_inline_expression(self):
        rng = np.random.default_rng(0)
        width, deg = 7, 3
        prev = rng.normal(size=width)
        nb_idx = rng.integers(0, width, size=(width, deg))
        nb_valid = rng.random(size=(width, deg)) < 0.7
        nb_delay = rng.random(size=(width, deg))
        rate = 1.0 + 0.01 * rng.random(size=width)
        h_nb = rate[:, None] * (prev[nb_idx] + nb_delay)
        want_min = np.where(nb_valid, h_nb, np.inf).min(axis=-1)
        want_max = np.where(nb_valid, h_nb, -np.inf).max(axis=-1)
        got_min, got_max = _dense_reductions(
            prev, nb_idx, nb_valid, nb_delay, rate
        )
        np.testing.assert_array_equal(got_min, want_min)
        np.testing.assert_array_equal(got_max, want_max)
        # Per-trial (S, W, max_deg) index rows gather trial s's plane only.
        stacked = np.stack([prev, prev[::-1]])
        got_min, got_max = _dense_reductions(
            stacked,
            np.stack([nb_idx, nb_idx]),
            np.stack([nb_valid, nb_valid]),
            nb_delay,
            np.stack([rate, rate]),
        )
        np.testing.assert_array_equal(got_min[0], want_min)
        np.testing.assert_array_equal(got_max[0], want_max)
        h_rev = rate[:, None] * (prev[::-1][nb_idx] + nb_delay)
        np.testing.assert_array_equal(
            got_min[1], np.where(nb_valid, h_rev, np.inf).min(axis=-1)
        )

    def test_neighbor_min_max_propagates_nan(self):
        prev = np.array([np.nan, 1.0, 2.0])
        nb_idx = np.array([[1], [0], [1]])
        nb_valid = np.ones((3, 1), dtype=bool)
        h_min, h_max = _dense_reductions(
            prev, nb_idx, nb_valid, np.zeros((3, 1)), np.ones(3)
        )
        assert np.isnan(h_min[1]) and np.isnan(h_max[1])
        assert h_min[0] == 1.0 and h_max[2] == 1.0

    def test_segment_min_max_fills_empty_segments(self):
        # Vertex 1 has no neighbors (campaign epoch shape): the dense
        # identities must appear explicitly -- reduceat has no empty
        # reduction.
        prev = np.array([3.0, 5.0, 7.0])
        indices = np.array([2, 0], dtype=np.int64)  # v0 -> {2}, v2 -> {0}
        indptr = np.array([0, 1, 1, 2], dtype=np.int64)
        nb_delay = np.array([0.5, 0.25])
        owner = np.array([0, 2], dtype=np.int64)
        has_neighbors = np.array([True, False, True])
        h_min, h_max = _csr_reductions(
            prev, indices, indptr, nb_delay, np.ones(3), owner, has_neighbors
        )
        np.testing.assert_array_equal(h_min, [7.5, np.inf, 3.25])
        np.testing.assert_array_equal(h_max, [7.5, -np.inf, 3.25])
