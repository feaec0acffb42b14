"""Tests for repro.core.fast: the layer-recurrence simulator, fault-free."""

import math
import pickle
from unittest import mock

import numpy as np
import pytest

import repro.core.fast as fast_mod
import repro.core.fast_batch as fast_batch_mod

from repro.analysis.skew import max_inter_layer_skew
from repro.clocks import uniform_random_rates
from repro.core.correction import CorrectionPolicy
from repro.core.fast import BRANCH_CODES, FastSimulation
from repro.core.fast_batch import TrialStack
from repro.core.layer0 import JitteredLayer0
from repro.delays import StaticDelayModel, UniformDelayModel
from repro.params import Parameters
from repro.topology import (
    LayeredGraph,
    cycle_graph,
    replicated_line,
    sparse_base_graph,
)

PARAMS = Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0)


#: FastResult arrays the kernel/scalar cross-validation compares.
RESULT_ARRAYS = ("times", "protocol_times", "corrections", "effective_corrections")


def scalar_reference():
    """Resolve every cell of a run with the per-cell scalar rule.

    The one seam to the reference: the kernel accepts no cell, so every
    active cell goes through the stack-wide fallback, and the fallback
    replays them through :func:`repro.core.fast._scalar_replay` instead
    of the batched replay.  Everything else -- gathers, layer 0, the
    fault overlay, streaming, campaign epochs -- is the production run.
    """
    return mock.patch.multiple(
        fast_batch_mod,
        _kernel_cells=np.zeros_like,
        _fallback_replay=fast_mod._scalar_replay,
    )


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


def per_layer_per_edge(model, base, layer, backend):
    """One layer's ``(own, nb)`` delays, queried one edge at a time.

    The reference layout the sweep's gathers must reproduce bitwise:
    own copies by vertex; neighbor copies in CSR segment order (a flat
    vector) or padded ``(W, max_deg)`` by sorted neighbor slot.
    """
    width = base.num_nodes
    own = np.array(
        [model.delay(((v, layer - 1), (v, layer))) for v in range(width)],
        dtype=float,
    )
    rows = [
        [model.delay(((w, layer - 1), (v, layer))) for w in base.neighbors(v)]
        for v in range(width)
    ]
    if backend == "csr":
        return own, np.array([d for row in rows for d in row], dtype=float)
    nb = np.zeros((width, base.max_degree()))
    for v, row in enumerate(rows):
        nb[v, : len(row)] = row
    return own, nb


def assert_gathered(got, want):
    for got_part, want_part in zip(got, want):
        assert got_part.shape == want_part.shape
        assert got_part.tobytes() == want_part.tobytes()


class TestDelayGather:
    """The whole-trial block gather equals per-layer per-edge queries
    bitwise."""

    MODELS = pytest.mark.parametrize(
        "cls, kwargs",
        [(StaticDelayModel, {"seed": 2**35 + 3}), (UniformDelayModel, {})],
        ids=["static", "uniform"],
    )
    BACKENDS = pytest.mark.parametrize("backend", ["dense", "csr"])

    @staticmethod
    def count_array_calls(monkeypatch, cls):
        """Record the target layers of every array-valued ``delay`` call."""
        calls = []
        original = cls.delay

        def counting(model, edge, pulse=0):
            layers = edge[1][1]
            if isinstance(layers, np.ndarray):
                calls.append(sorted(set(layers.tolist())))
            return original(model, edge, pulse)

        monkeypatch.setattr(cls, "delay", counting)
        return calls

    @BACKENDS
    @MODELS
    def test_block_matches_per_edge(self, backend, cls, kwargs):
        per_edge_cls = type("PerEdge", (cls,), {"array_endpoints": False})
        graph = LayeredGraph(
            sparse_base_graph(300, num_hubs=2, hub_degree=40), 4
        )
        gathered = []
        for model_cls in (cls, per_edge_cls):
            model = model_cls(PARAMS.d, PARAMS.u, **kwargs)
            sim = FastSimulation(graph, PARAMS, delay_model=model)
            sweep = fast_mod._VectorSweep(sim, backend=backend)
            gathered.append([
                sweep.delay_arrays(layer, 0)
                for layer in range(1, graph.num_layers)
            ])
        for block, loop in zip(*gathered):
            assert_gathered(block, loop)

    @BACKENDS
    @MODELS
    def test_whole_trial_in_one_call(self, monkeypatch, backend, cls, kwargs):
        base = sparse_base_graph(60, num_hubs=1, hub_degree=12)
        graph = LayeredGraph(base, 6)
        model = cls(PARAMS.d, PARAMS.u, **kwargs)
        reference = cls(PARAMS.d, PARAMS.u, **kwargs)
        calls = self.count_array_calls(monkeypatch, cls)
        sweep = fast_mod._VectorSweep(
            FastSimulation(graph, PARAMS, delay_model=model), backend=backend
        )
        for layer in range(1, graph.num_layers):
            assert_gathered(
                sweep.delay_arrays(layer, 0),
                per_layer_per_edge(reference, base, layer, backend),
            )
        assert calls == [list(range(1, graph.num_layers))]

    @BACKENDS
    def test_blocks_larger_than_the_bound_take_several_calls(
        self, monkeypatch, backend
    ):
        base = sparse_base_graph(60, num_hubs=1, hub_degree=12)
        graph = LayeredGraph(base, 8)
        layer_edges = base.num_nodes + 2 * len(base.edges)
        # Room for two and a half layers: whole layers only, two per call.
        monkeypatch.setattr(
            fast_mod, "_GATHER_BLOCK_EDGES", 5 * layer_edges // 2
        )
        calls = self.count_array_calls(monkeypatch, StaticDelayModel)
        model = StaticDelayModel(PARAMS.d, PARAMS.u, seed=11)
        sweep = fast_mod._VectorSweep(
            FastSimulation(graph, PARAMS, delay_model=model), backend=backend
        )
        for layer in range(1, graph.num_layers):
            assert_gathered(
                sweep.delay_arrays(layer, 0),
                per_layer_per_edge(model, base, layer, backend),
            )
        assert calls == [[1, 2], [3, 4], [5, 6], [7]]

    def test_layer_larger_than_the_bound_is_one_call(self, monkeypatch):
        base = replicated_line(9)
        graph = LayeredGraph(base, 4)
        monkeypatch.setattr(fast_mod, "_GATHER_BLOCK_EDGES", 3)
        calls = self.count_array_calls(monkeypatch, StaticDelayModel)
        model = StaticDelayModel(PARAMS.d, PARAMS.u, seed=4)
        sweep = fast_mod._VectorSweep(
            FastSimulation(graph, PARAMS, delay_model=model), backend="dense"
        )
        for layer in range(1, graph.num_layers):
            assert_gathered(
                sweep.delay_arrays(layer, 0),
                per_layer_per_edge(model, base, layer, "dense"),
            )
        assert calls == [[1], [2], [3]]

    def test_shared_model_fills_only_missing_layers(self, monkeypatch):
        base = cycle_graph(12)
        model = StaticDelayModel(PARAMS.d, PARAMS.u, seed=5)
        shallow = LayeredGraph(base, 4)
        deep = LayeredGraph(base, 9)
        calls = self.count_array_calls(monkeypatch, StaticDelayModel)
        FastSimulation(shallow, PARAMS, delay_model=model).run(2)
        (entries,) = model._edge_array_cache.values()
        before = {
            key: (own.tobytes(), nb.tobytes(), own, nb)
            for key, (own, nb) in entries.items()
        }
        assert sorted(before) == [1, 2, 3]
        assert calls == [[1, 2, 3]]
        calls.clear()
        FastSimulation(deep, PARAMS, delay_model=model).run(2)
        assert calls == [[4, 5, 6, 7, 8]]
        assert sorted(entries) == list(range(1, 9))
        for key, (own_bytes, nb_bytes, own, nb) in before.items():
            assert entries[key][0] is own and entries[key][1] is nb
            assert own.tobytes() == own_bytes and nb.tobytes() == nb_bytes
        for layer in range(1, deep.num_layers):
            assert_gathered(
                entries[layer],
                per_layer_per_edge(model, base, layer, "dense"),
            )

    def test_padded_mixed_depth_stack(self, monkeypatch):
        shapes = [
            (replicated_line(7), 9),
            (cycle_graph(10), 4),
            (replicated_line(5), 6),
        ]
        sims = [
            FastSimulation(
                LayeredGraph(base, layers),
                PARAMS,
                delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=20 + i),
            )
            for i, (base, layers) in enumerate(shapes)
        ]
        calls = self.count_array_calls(monkeypatch, StaticDelayModel)
        TrialStack(sims).run(2)
        # One call per trial, never past its own depth.
        assert calls == [list(range(1, layers)) for _, layers in shapes]
        calls.clear()
        for sim, (base, layers) in zip(sims, shapes):
            sweep = fast_mod._VectorSweep(sim, backend="dense")
            for layer in range(1, layers):
                assert_gathered(
                    sweep.delay_arrays(layer, 0),
                    per_layer_per_edge(sim.delay_model, base, layer, "dense"),
                )
        assert calls == []


class TestVectorizedCrossValidation:
    """The array kernel must match the scalar per-cell rule to float precision."""

    def assert_equivalent(self, vec, scalar):
        assert_results_equivalent(vec, scalar)

    @staticmethod
    def both(build):
        """``build()`` run normally, then through the scalar reference."""
        vec = build()
        with scalar_reference():
            scalar = build()
        assert scalar.fallback_cells > 0
        return vec, scalar

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scalar_on_random_rates_and_delays(self, seed):
        self.assert_equivalent(
            *self.both(lambda: noisy_sim(diameter=8, seed=seed).run(4))
        )

    def test_matches_scalar_on_cycle_base_graph(self):
        def build():
            graph = LayeredGraph(cycle_graph(10), 10)
            delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=2)
            return FastSimulation(graph, PARAMS, delay_model=delays).run(3)

        self.assert_equivalent(*self.both(build))

    def test_matches_scalar_with_jittered_layer0(self):
        def build():
            graph = LayeredGraph(replicated_line(8), 12)
            layer0 = JitteredLayer0(
                PARAMS.Lambda, graph.width, jitter_bound=3 * PARAMS.kappa, seed=5
            )
            delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=1)
            return FastSimulation(
                graph, PARAMS, delay_model=delays, layer0=layer0
            ).run(3)

        self.assert_equivalent(*self.both(build))

    def test_matches_scalar_with_continuous_policy(self):
        policy = CorrectionPolicy(discretize=False)
        self.assert_equivalent(
            *self.both(
                lambda: noisy_sim(diameter=8, seed=1, policy=policy).run(3)
            )
        )

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
        with scalar_reference():
            fresh = FastSimulation(
                graph, PARAMS,
                delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=99),
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
        with scalar_reference():
            fresh = FastSimulation(graph, PARAMS, clock_rates=dict(rates)).run(2)
        self.assert_equivalent(mutated, fresh)

    def test_matches_scalar_with_callable_rates(self):
        def rates(node, pulse):
            v, layer = node
            return 1.0 + 0.0008 * ((v * 31 + layer * 7 + pulse) % 11) / 11.0

        def build():
            graph = LayeredGraph(replicated_line(8), 8)
            delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=0)
            return FastSimulation(
                graph, PARAMS, delay_model=delays, clock_rates=rates
            ).run(3)

        self.assert_equivalent(*self.both(build))


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


class TestRunIsAStackOfOne:
    """``FastSimulation.run`` returns a stacked result like any stack."""

    def test_arrays_are_frozen(self):
        result = noisy_sim(diameter=6).run(2)
        for attr in RESULT_ARRAYS + ("branches",):
            assert not getattr(result, attr).flags.writeable, attr
        with pytest.raises(ValueError):
            result.times[0, 0, 0] = 0.0

    def test_result_is_row_zero_of_its_block(self):
        result = noisy_sim(diameter=6).run(2)
        assert result.stack_row == 0
        assert result.stack_block.times.shape[0] == 1
        assert np.shares_memory(result.times, result.stack_block.times)

    def test_pickle_drops_block_and_round_trips(self):
        result = noisy_sim(diameter=6).run(2)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.stack_block is None
        assert clone.stack_row is None
        for attr in RESULT_ARRAYS + ("branches",):
            np.testing.assert_array_equal(
                getattr(clone, attr), getattr(result, attr), err_msg=attr
            )
        assert clone.max_local_skew() == result.max_local_skew()


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
