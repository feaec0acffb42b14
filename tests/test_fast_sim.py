"""Tests for repro.core.fast: the layer-recurrence simulator, fault-free."""

import math
import pickle
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import repro.core.fast as fast_mod
import repro.core.fast_batch as fast_batch_mod

from repro.analysis.skew import max_inter_layer_skew
from repro.clocks import uniform_random_rates
from repro.core.correction import CorrectionPolicy, compute_correction
from repro.core.fast import BRANCH_CODES, FastSimulation
from repro.core.fast_batch import TrialStack
from repro.core.layer0 import JitteredLayer0
from repro.delays import (
    AdversarialSplitDelays,
    DelayModel,
    StaticDelayModel,
    UniformDelayModel,
    VaryingDelayModel,
)
from repro.faults import CrashFault, FaultPlan
from repro.params import Parameters
from repro.topology import (
    LayeredGraph,
    cycle_graph,
    replicated_line,
    sparse_base_graph,
)
from repro.topology.base_graph import degree_columns

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


def per_layer_per_edge(model, base, layer, pulses=range(1)):
    """One layer's ``(own, nb)`` delays over ``pulses``, ``(P, W)`` and
    ``(P, E)``, queried one edge and pulse at a time.

    The reference layout the sweep's gathers must reproduce bitwise:
    own copies by vertex; neighbor copies on the CSR entry axis (vertex
    by vertex, sorted neighbors within a vertex).
    """
    width = base.num_nodes
    own = np.array(
        [
            [model.delay(((v, layer - 1), (v, layer)), k) for v in range(width)]
            for k in pulses
        ],
        dtype=float,
    )
    nb = np.array(
        [
            [
                model.delay(((w, layer - 1), (v, layer)), k)
                for v in range(width)
                for w in base.neighbors(v)
            ]
            for k in pulses
        ],
        dtype=float,
    )
    return own, nb


def sweep_of(sim):
    """The sweep a run builds for ``sim`` on its own graph and plan."""
    return fast_mod._VectorSweep(sim, sim.graph, sim.fault_plan)


def assert_gathered(got, want):
    for got_part, want_part in zip(got, want):
        assert got_part.shape == want_part.shape
        assert got_part.tobytes() == want_part.tobytes()


class Ramp(DelayModel):
    """An outside pulse-varying model: only the base class's block query."""

    def delay(self, edge, pulse=0):
        (w, _), (v, layer) = edge
        return self.d - self.u * ((w + 2 * v + layer + pulse) % 5) / 4


class TestDelayGather:
    """The block gather equals per-layer per-edge queries bitwise."""

    ARRAY_MODELS = [(StaticDelayModel, {"seed": 2**35 + 3}), (UniformDelayModel, {})]
    MODELS = pytest.mark.parametrize(
        "cls, kwargs",
        ARRAY_MODELS + [
            (VaryingDelayModel, {"max_step": 0.004, "seed": 2**33 + 9}),
            (AdversarialSplitDelays, {"slow_edge": lambda e: e[0][0] < e[1][0]}),
            (Ramp, {}),
        ],
        ids=["static", "uniform", "varying", "adversarial", "custom"],
    )
    HORIZON = 24

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

    @MODELS
    def test_block_matches_per_edge(self, cls, kwargs):
        # The base class's default asks ``delay`` per edge and pulse.
        per_edge_cls = type("PerEdge", (cls,), {"pulse_delays": DelayModel.pulse_delays})
        graph = LayeredGraph(
            sparse_base_graph(300, num_hubs=2, hub_degree=40), 4
        )
        gathered = []
        for model_cls in (cls, per_edge_cls):
            model = model_cls(PARAMS.d, PARAMS.u, **kwargs)
            sim = FastSimulation(graph, PARAMS, delay_model=model)
            sweep = sweep_of(sim)
            gathered.append([
                sweep.delay_arrays(layer, range(2, 5))
                for layer in range(1, graph.num_layers)
            ])
        for block, loop in zip(*gathered):
            assert_gathered(block, loop)

    @MODELS
    @pytest.mark.parametrize(
        "pulses", [range(7, 8), range(4, 7), range(HORIZON)],
        ids=["one", "three", "horizon"],
    )
    def test_block_query_matches_scalar_delay(self, cls, kwargs, pulses):
        # (P, E) per layer, or one row standing for every pulse on a
        # pulse-invariant model.
        base = sparse_base_graph(60, num_hubs=1, hub_degree=12)
        graph = LayeredGraph(base, 5)
        model = cls(PARAMS.d, PARAMS.u, **kwargs)
        reference = cls(PARAMS.d, PARAMS.u, **kwargs)
        sweep = sweep_of(FastSimulation(graph, PARAMS, delay_model=model))
        rows = 1 if model.pulse_invariant else len(pulses)
        for layer in range(1, graph.num_layers):
            want = per_layer_per_edge(reference, base, layer, pulses)
            for got, part in zip(sweep.delay_arrays(layer, pulses), want):
                assert got.shape == (rows,) + part.shape[1:]
                assert np.broadcast_to(got, part.shape).tobytes() == part.tobytes()

    @pytest.mark.parametrize("cls, kwargs", ARRAY_MODELS, ids=["static", "uniform"])
    def test_whole_trial_in_one_call(self, monkeypatch, cls, kwargs):
        base = sparse_base_graph(60, num_hubs=1, hub_degree=12)
        graph = LayeredGraph(base, 6)
        model = cls(PARAMS.d, PARAMS.u, **kwargs)
        reference = cls(PARAMS.d, PARAMS.u, **kwargs)
        calls = self.count_array_calls(monkeypatch, cls)
        sweep = sweep_of(FastSimulation(graph, PARAMS, delay_model=model))
        for layer in range(1, graph.num_layers):
            assert_gathered(
                sweep.delay_arrays(layer, range(1)),
                per_layer_per_edge(reference, base, layer),
            )
        assert calls == [list(range(1, graph.num_layers))]

    def test_blocks_larger_than_the_bound_take_several_calls(self, monkeypatch):
        base = sparse_base_graph(60, num_hubs=1, hub_degree=12)
        graph = LayeredGraph(base, 8)
        layer_edges = base.num_nodes + 2 * len(base.edges)
        # Room for two and a half layers: whole layers only, two per call.
        monkeypatch.setattr(
            fast_mod, "_GATHER_BLOCK_EDGES", 5 * layer_edges // 2
        )
        calls = self.count_array_calls(monkeypatch, StaticDelayModel)
        model = StaticDelayModel(PARAMS.d, PARAMS.u, seed=11)
        sweep = sweep_of(FastSimulation(graph, PARAMS, delay_model=model))
        for layer in range(1, graph.num_layers):
            assert_gathered(
                sweep.delay_arrays(layer, range(1)),
                per_layer_per_edge(model, base, layer),
            )
        assert calls == [[1, 2], [3, 4], [5, 6], [7]]

    def test_layer_larger_than_the_bound_is_one_call(self, monkeypatch):
        base = replicated_line(9)
        graph = LayeredGraph(base, 4)
        monkeypatch.setattr(fast_mod, "_GATHER_BLOCK_EDGES", 3)
        calls = self.count_array_calls(monkeypatch, StaticDelayModel)
        model = StaticDelayModel(PARAMS.d, PARAMS.u, seed=4)
        sweep = sweep_of(FastSimulation(graph, PARAMS, delay_model=model))
        for layer in range(1, graph.num_layers):
            assert_gathered(
                sweep.delay_arrays(layer, range(1)),
                per_layer_per_edge(model, base, layer),
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
                per_layer_per_edge(model, base, layer),
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
            sweep = sweep_of(sim)
            for layer in range(1, layers):
                assert_gathered(
                    sweep.delay_arrays(layer, range(1)),
                    per_layer_per_edge(sim.delay_model, base, layer),
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


class TestRatePlane:
    """A config's read-only rate view runs exactly like its dict copy."""

    def test_view_matches_dict_bitwise(self):
        from repro.experiments.common import standard_config

        config = standard_config(6, seed=4)
        view = config.clock_rates
        assert isinstance(view, fast_mod.RatePlane)

        def run(rates):
            stack = TrialStack(
                [
                    FastSimulation(
                        config.graph,
                        config.params,
                        delay_model=config.delay_model,
                        clock_rates=rates,
                    )
                ]
            )
            (result,) = stack.run(3)
            return result

        from_view = run(view)
        from_dict = run(dict(view))
        for attr in RESULT_ARRAYS:
            a, b = getattr(from_view, attr), getattr(from_dict, attr)
            assert np.array_equal(a, b, equal_nan=True), attr
        assert np.array_equal(from_view.branches, from_dict.branches)

    @staticmethod
    def run_planes(sim, runs=2):
        """The rate plane each of ``runs`` runs of ``sim`` read."""
        sweep = fast_mod._VectorSweep
        with mock.patch.object(
            sweep, "__init__", autospec=True, side_effect=sweep.__init__
        ) as init:
            for _ in range(runs):
                sim.run(2)
        return [call.args[0].rate_plane for call in init.call_args_list]

    def test_warm_rerun_reads_the_plane_as_is(self):
        from repro.experiments.common import standard_config

        config = standard_config(6, seed=1)
        first, second = self.run_planes(config.simulation())
        assert first is config.clock_rates.plane
        assert second is first
        # A plain dict is re-read every run (in-place edits are honored).
        sim = FastSimulation(
            config.graph, config.params, clock_rates=dict(config.clock_rates)
        )
        first, second = self.run_planes(sim)
        assert second is not first
        assert np.array_equal(second, first)

    def test_plane_is_read_only_and_pickles(self):
        plane = np.array([[1.0, 1.5], [1.25, 1.75]])
        view = fast_mod.RatePlane(plane)
        plane[0, 0] = 9.0  # the view copied the writeable input
        assert view[(0, 0)] == 1.0
        assert view[(1, 1)] == 1.75
        assert view.get((2, 0)) is None and view.get((0, 2)) is None
        assert (0, -1) not in view and "x" not in view
        with pytest.raises(ValueError):
            view.plane[0, 0] = 2.0
        clone = pickle.loads(pickle.dumps(view))
        assert not clone.plane.flags.writeable
        assert clone == view and dict(clone) == dict(view)


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
# Neighbor reductions of the layer step
# ----------------------------------------------------------------------
def _reductions(prev, nb_delay, rate, columns):
    """The ``(H_min, H_max)`` the layer step hands its register step."""
    captured = []

    def capture(h_own, h_min, h_max, *rest):
        captured.append((h_min, h_max))

    with mock.patch.object(fast_mod, "_registers_step", capture):
        fast_mod._layer_step_kernel(
            prev, np.zeros_like(prev), nb_delay, rate, columns,
            np.ones(prev.shape, dtype=bool), None, None, False,
        )
    (reduced,) = captured
    return reduced


def padded_reductions(prev, nb_idx, nb_valid, nb_delay, rate):
    """:func:`_reductions` over ``(S, W, deg)`` neighbor tables laid out
    as an entry axis of ``deg`` slots per lane, with one row of sources
    and validity per trial; ``prev`` / ``rate`` are ``(S, W)`` planes
    and ``nb_delay`` is ``(W, deg)``, shared."""
    trials, width, deg = nb_idx.shape
    columns = degree_columns(
        np.arange(width + 1) * deg,
        nb_idx.reshape(trials, -1),
        nb_valid.reshape(trials, -1),
    )
    h_min, h_max = _reductions(
        prev[:, None], nb_delay.reshape(1, 1, -1), rate[:, None], columns
    )
    return h_min[:, 0], h_max[:, 0]


class TestKernelReductions:
    def test_masked_reductions_ignore_invalid_lanes(self):
        # Zero send times and unit rates: the lane values are the delays.
        vals = np.array([[1.0, -5.0, 3.0], [2.0, 7.0, 0.5]])
        valid = np.array([[True, False, True], [True, True, False]])
        h_min, h_max = padded_reductions(
            np.zeros((1, 2)), np.zeros((1, 2, 3), dtype=np.int64),
            valid[None], vals, np.ones((1, 2)),
        )
        np.testing.assert_array_equal(h_min, [[1.0, 2.0]])
        np.testing.assert_array_equal(h_max, [[3.0, 7.0]])

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
        # Per-trial source rows gather trial s's plane only.
        got_min, got_max = padded_reductions(
            np.stack([prev, prev[::-1]]),
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
        columns = degree_columns(
            np.arange(4), np.array([1, 0, 1])
        )
        h_min, h_max = _reductions(prev, np.zeros(3), np.ones(3), columns)
        assert np.isnan(h_min[1]) and np.isnan(h_max[1])
        assert h_min[0] == 1.0 and h_max[2] == 1.0

    def test_segment_min_max_fills_empty_segments(self):
        # Vertex 1 has no neighbors (campaign epoch shape): no column
        # holds it, so it keeps the identities.
        prev = np.array([3.0, 5.0, 7.0])
        indices = np.array([2, 0], dtype=np.int64)  # v0 -> {2}, v2 -> {0}
        indptr = np.array([0, 1, 1, 2], dtype=np.int64)
        columns = degree_columns(indptr, indices)
        h_min, h_max = _reductions(
            prev, np.array([0.5, 0.25]), np.ones(3), columns
        )
        np.testing.assert_array_equal(h_min, [7.5, np.inf, 3.25])
        np.testing.assert_array_equal(h_max, [7.5, -np.inf, 3.25])


# ----------------------------------------------------------------------
# Parity of the in-place layer step
# ----------------------------------------------------------------------
#: Every structural policy: discretize x stick_to_median.
ALL_POLICIES = [
    CorrectionPolicy(discretize=discretize, stick_to_median=stick)
    for discretize in (True, False)
    for stick in (True, False)
]


def register_lanes(lanes=240, seed=0):
    """``(h_own, h_min, h_max)`` lanes over all three branches.

    ``h_min <= h_max`` everywhere, with exact ties, ``H_max = +inf``
    lanes (last neighbor missing) and lanes with a NaN register.
    """
    rng = np.random.default_rng(seed)
    h_min = rng.uniform(0.0, 4.0, lanes)
    h_max = h_min + rng.uniform(0.0, 0.2, lanes)
    h_max[::11] = h_min[::11]
    h_own = (h_min + h_max) / 2.0 + rng.normal(0.0, 0.04, lanes)
    h_own[::29] = h_min[::29]  # delta = 0 with kappa = 0: the mid branch
    h_max[3::13] = np.inf
    h_own[5::17] = np.nan
    h_min[6::19] = np.nan
    h_max[7::23] = np.nan
    return h_own, h_min, h_max


def scalar_corrections(h_own, h_min, h_max, kappa, vartheta, policy):
    """``compute_correction`` lane by lane: ``(correction, branches,
    defined)``.  ``defined`` is False on the lanes outside the scalar
    rule's domain (it raises on a NaN ``h_own`` / ``h_min``, and on a
    NaN ``h_max`` that it must discretize)."""
    kappa = np.broadcast_to(kappa, h_own.shape)
    vartheta = np.broadcast_to(vartheta, h_own.shape)
    correction = np.full(h_own.shape, np.nan)
    branches = np.full(h_own.shape, BRANCH_CODES["none"], dtype=np.int8)
    defined = np.zeros(h_own.shape, dtype=bool)
    for i in range(h_own.size):
        registers = (float(h_own[i]), float(h_min[i]), float(h_max[i]))
        try:
            outcome = compute_correction(
                *registers, float(kappa[i]), float(vartheta[i]), policy
            )
        except ValueError:
            assert any(math.isnan(r) for r in registers)
            continue
        correction[i] = outcome.correction
        branches[i] = BRANCH_CODES[outcome.branch]
        defined[i] = True
    return correction, branches, defined


class TestCorrectionStepParity:
    """``_correction_step`` against the scalar rule, bit for bit."""

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=repr)
    @pytest.mark.parametrize("kappa", ["stacked", 0.0, PARAMS.kappa])
    def test_matches_compute_correction_bitwise(self, policy, kappa):
        h_own, h_min, h_max = register_lanes()
        if kappa == "stacked":
            # Per-lane kappa and vartheta columns, kappa = 0 included.
            kappa = np.resize([PARAMS.kappa, 0.0, 0.05], h_own.size)
            vartheta = np.resize([PARAMS.vartheta, 1.01], h_own.size)
        else:
            vartheta = PARAMS.vartheta
        params = SimpleNamespace(kappa=kappa, vartheta=vartheta)
        inputs = [array.copy() for array in (h_own, h_min, h_max)]
        got, codes = fast_mod._correction_step(*inputs, params, policy)
        want, want_codes, defined = scalar_corrections(
            h_own, h_min, h_max, kappa, vartheta, policy
        )
        # Lanes the scalar rule rejects (NaN registers) have no
        # reference; they must only not raise.  A NaN reference wants a
        # NaN, every other one the same bits.
        nan = defined & np.isnan(want)
        exact = defined & ~nan
        assert np.isnan(got[nan]).all()
        np.testing.assert_array_equal(
            got[exact].view(np.uint64), want[exact].view(np.uint64)
        )
        np.testing.assert_array_equal(codes[defined], want_codes[defined])
        # Every branch and H_max = +inf occur, and the registers are
        # only read.
        assert set(want_codes[exact]) == {0, 1, 2}
        assert (np.isinf(h_max) & exact & (codes == BRANCH_CODES["low"])).any()
        for array, before in zip(inputs, (h_own, h_min, h_max)):
            np.testing.assert_array_equal(
                array.view(np.uint64), before.view(np.uint64)
            )

    def test_without_codes_the_correction_is_the_same(self):
        h_own, h_min, h_max = register_lanes()
        with_codes, codes = fast_mod._correction_step(
            h_own, h_min, h_max, PARAMS, CorrectionPolicy()
        )
        alone, none = fast_mod._correction_step(
            h_own, h_min, h_max, PARAMS, CorrectionPolicy(), codes=False
        )
        assert codes is not None and none is None
        np.testing.assert_array_equal(
            alone.view(np.uint64), with_codes.view(np.uint64)
        )


def step_inputs(base, trials=3, pulses=4, seed=0):
    """One ``(S, B, W)`` layer step's inputs on ``base``.

    Returns ``(prev, own_delay, nb_delay, rate, static_eligible)``, the
    neighbor delays ``(S, 1, E)`` on the CSR entry axis.  Two send times
    are missing (NaN).
    """
    rng = np.random.default_rng(seed)
    width = base.num_nodes
    entries = 2 * len(base.edges)
    prev = rng.uniform(0.0, 0.01, (trials, pulses, width))
    prev[0, 1, 2] = prev[2, 3, width - 1] = np.nan
    own_delay = rng.uniform(PARAMS.d - PARAMS.u, PARAMS.d, (trials, 1, width))
    nb_delay = rng.uniform(PARAMS.d - PARAMS.u, PARAMS.d, (trials, 1, entries))
    rate = rng.uniform(1.0, PARAMS.vartheta, (trials, 1, width))
    static_eligible = np.ones((trials, 1, width), dtype=bool)
    return prev, own_delay, nb_delay, rate, static_eligible


def axis_reduced_step(
    base, prev, own_delay, nb_delay, rate, static_eligible, *args
):
    """The layer step with ``H_min`` / ``H_max`` as the degree-axis
    reduction of the whole masked ``(..., W, max_deg)`` neighbor tensor
    (the entry axis padded out by sorted neighbor slot); ``args`` are
    :func:`repro.core.fast._registers_step`'s last four."""
    indptr, indices = base.neighbor_csr()
    degree = np.diff(indptr)
    valid = np.arange(max(base.max_degree(), 1)) < degree[:, None]
    index = np.zeros(valid.shape, dtype=np.int64)
    index[valid] = indices
    padded = np.zeros(nb_delay.shape[:-1] + valid.shape)
    padded[..., valid] = nb_delay
    h_nb = rate[..., None] * (prev.take(index, axis=-1) + padded)
    h_min = np.minimum.reduce(np.where(valid, h_nb, np.inf), axis=-1)
    h_max = np.maximum.reduce(np.where(valid, h_nb, -np.inf), axis=-1)
    h_own = rate * (prev + own_delay)
    return fast_mod._registers_step(
        h_own, h_min, h_max, rate, static_eligible, *args
    )


def assert_outputs_bitwise(got, want):
    assert len(got) == len(want)
    for index, (a, b) in enumerate(zip(got, want)):
        if b is None:
            assert a is None, index
            continue
        assert a.shape == b.shape and a.dtype == b.dtype, index
        np.testing.assert_array_equal(
            a.view(np.uint8), b.view(np.uint8), err_msg=str(index)
        )


def snapshot(values):
    """Bitwise copies of the arrays among ``values`` (nested tuples too)."""
    out = []
    for value in values:
        if isinstance(value, np.ndarray):
            out.append(value.copy())
        elif isinstance(value, tuple):
            out.append(snapshot(value))
        else:
            out.append(value)
    return out


def assert_unchanged(values, before):
    for value, old in zip(values, before):
        if isinstance(value, np.ndarray):
            assert value.tobytes() == old.tobytes()
        elif isinstance(value, tuple):
            assert_unchanged(value, old)


def array_flags(values):
    """The ``writeable`` flag of every array among ``values``."""
    flags = []
    for value in values:
        if isinstance(value, np.ndarray):
            flags.append(value.flags.writeable)
        elif isinstance(value, tuple):
            flags.extend(array_flags(value))
    return flags


class TestKernelInputsAreOnlyRead:
    def test_kernels_and_replay_leave_inputs_unchanged(self):
        base = replicated_line(9)
        prev, own_delay, nb_delay, rate, eligible = step_inputs(base)
        indptr, indices = base.neighbor_csr()
        trials = prev.shape[0]
        # The shared plan, and per-trial rows with one copy masked.
        valid = np.ones((trials, indices.size), dtype=bool)
        valid[1, 3] = False
        per_trial = degree_columns(
            indptr, np.broadcast_to(indices, valid.shape), valid
        )
        args = (PARAMS, CorrectionPolicy(), False, True)
        calls = [
            (fast_mod._layer_step_kernel,
             (prev, own_delay, nb_delay, rate, columns, eligible, *args))
            for columns in (base.neighbor_columns(), per_trial)
        ]
        rng = np.random.default_rng(1)
        ev_time = rng.uniform(1.0, 1.02, (40, 4))
        ev_time[::3, 3] = np.inf  # padding slots
        ev_time[::7, 0] = np.inf  # missing own copies: via H_max
        ev_time[::5, 2] = np.inf  # missing last neighbors
        num_nb = np.where(np.isinf(ev_time[:, 3]), 2, 3)
        rates = rng.uniform(1.0, PARAMS.vartheta, 40)
        for simplified in (False, True):
            calls.append(
                (fast_mod._fallback_replay,
                 (ev_time, num_nb, rates, PARAMS, CorrectionPolicy(),
                  simplified))
            )
        for function, inputs in calls:
            before = snapshot(inputs)
            function(*inputs)
            assert_unchanged(inputs, before)

    @pytest.mark.parametrize("store_times", [False, True])
    def test_stack_hands_read_only_inputs(self, store_times):
        """Every array a uniform and a padded run hand the kernel (the
        neighbor plan included) is read-only, and the replay runs."""
        plan = FaultPlan.from_nodes({(3, 2): CrashFault()})
        seen = {}

        def spy(name, function):
            def wrapped(*args):
                seen.setdefault(name, []).extend(array_flags(args))
                return function(*args)
            return wrapped

        with mock.patch.multiple(
            fast_batch_mod,
            _layer_step_kernel=spy("kernel", fast_mod._layer_step_kernel),
            _fallback_replay=spy("replay", fast_mod._fallback_replay),
        ):
            for diameters in ((6, 6), (6, 8)):
                sims = [
                    noisy_sim(diameter=diameter, seed=s, fault_plan=plan)
                    for s, diameter in enumerate(diameters)
                ]
                TrialStack(sims).run(3, store_times=store_times)
        assert set(seen) == {"kernel", "replay"}
        assert not any(seen["kernel"]), seen["kernel"]

    def test_streamed_ring_has_no_effective_or_branch_planes(self):
        sims = [noisy_sim(diameter=6, seed=s) for s in (0, 1)]
        seen = []
        real = fast_mod._layer_step_kernel

        def spy(*args):
            out = real(*args)
            seen.append(out)
            return out

        with mock.patch.object(fast_batch_mod, "_layer_step_kernel", spy):
            streamed = TrialStack(sims).run(3, store_times=False)
        assert seen and all(
            out[2] is None and out[4] is None for out in seen
        )
        materialized = TrialStack(sims).run(3)
        for lean, full in zip(streamed, materialized):
            assert lean.max_local_skew() == full.max_local_skew()
