"""Property-based equivalence suite for heterogeneous trial stacking.

The padded ``(S, W_max)`` kernel of :class:`repro.core.fast_batch.TrialStack`
promises results *bit-identical* to per-trial :class:`FastSimulation` runs
for arbitrary mixes of grid widths, depths, topologies, parameters, delay
models, clock rates, layer-0 schedules, numeric policy knobs, and fault
sets.  Hypothesis drives randomized stacks through that promise, and
through the invariant that padding cells (NaN) never leak into the skew
reducers of :mod:`repro.analysis.skew`.

Deterministic regressions cover the relaxed grouping (`stack_compatibility`
/ ``_stack_key``): a thm11-style mixed-width sweep is one group, process
sharding stays order-preserving on heterogeneous groups, and per-trial
fallbacks always record their reason on :class:`BatchResult`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.skew import (
    global_skew,
    inter_layer_skew_layers,
    local_skew_layers,
    max_inter_layer_skew,
    max_local_skew,
    overall_skew,
    overall_skew_layers,
)
from repro.analysis.streaming import fold_correction_planes
from repro.core.correction import CorrectionPolicy
from repro.core.fast import FastSimulation
from repro.core.fast_batch import TrialStack, stack_compatibility
from repro.core.layer0 import (
    AlternatingLayer0,
    ChainLayer0,
    JitteredLayer0,
    PerfectLayer0,
    stacked_pulse_times,
)
from repro.delays.models import (
    StaticDelayModel,
    UniformDelayModel,
    VaryingDelayModel,
)
from repro.experiments.batch import (
    BatchResult,
    BatchRunner,
    BatchTrial,
    _stack_key,
)
from repro.experiments.common import standard_config
from repro.faults.injection import FaultPlan
from repro.faults.model import (
    AdversarialLateFault,
    ByzantineRandomFault,
    CrashFault,
)
from repro.params import Parameters
from repro.topology.base_graph import (
    complete_graph,
    cycle_graph,
    replicated_line,
    torus_graph,
)
from repro.topology.layered import LayeredGraph
from tests.conftest import shards
from tests.test_fast_sim import scalar_reference

NUM_PULSES = 3

PARAMS_CHOICES = (
    Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0),
    Parameters(d=1.0, u=0.05, vartheta=1.01, Lambda=2.5),
)

HETERO_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def base_graphs(draw):
    """Mixed topologies and widths: line, cycle, complete, torus."""
    kind = draw(st.sampled_from(["line", "cycle", "complete", "torus"]))
    if kind == "line":
        return replicated_line(draw(st.integers(2, 8)))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(3, 10)))
    if kind == "complete":
        return complete_graph(draw(st.integers(3, 6)))
    return torus_graph(3, draw(st.integers(3, 4)))


@st.composite
def simulations(draw, algorithm):
    """One randomized trial: geometry, delays, rates, layer 0, faults."""
    base = draw(base_graphs())
    num_layers = draw(st.integers(2, 5))
    graph = LayeredGraph(base, num_layers)
    params = draw(st.sampled_from(PARAMS_CHOICES))
    seed = draw(st.integers(0, 2**16))

    delay_kind = draw(st.sampled_from(["uniform", "static", "varying"]))
    if delay_kind == "uniform":
        delay_model = UniformDelayModel(params.d, params.u)
    elif delay_kind == "static":
        delay_model = StaticDelayModel(params.d, params.u, seed=seed)
    else:
        delay_model = VaryingDelayModel(
            params.d, params.u, max_step=params.u / 4.0, seed=seed
        )

    layer0_kind = draw(st.sampled_from(["perfect", "jittered", "alternating"]))
    if layer0_kind == "perfect":
        layer0 = PerfectLayer0(params.Lambda)
    elif layer0_kind == "jittered":
        layer0 = JitteredLayer0(
            params.Lambda, base.num_nodes, params.kappa / 2.0, seed=seed
        )
    else:
        layer0 = AlternatingLayer0(params.Lambda, params.kappa)

    if draw(st.booleans()):
        clock_rates = None
    else:
        rng = np.random.default_rng(seed + 1)
        clock_rates = {
            (v, layer): float(rng.uniform(1.0, params.vartheta))
            for layer in range(num_layers)
            for v in base.nodes()
        }

    fault_plan = None
    num_faults = draw(st.integers(0, 2))
    if num_faults:
        rng = np.random.default_rng(seed + 2)
        behaviors = {}
        for _ in range(num_faults):
            node = (
                int(rng.integers(base.num_nodes)),
                int(rng.integers(num_layers)),
            )
            roll = rng.random()
            if roll < 0.5:
                behavior = CrashFault()
            elif roll < 0.8:
                behavior = AdversarialLateFault(float(rng.uniform(5.0, 30.0)))
            else:
                behavior = ByzantineRandomFault(
                    span=float(rng.uniform(0.1, 1.0)),
                    seed=int(rng.integers(1 << 30)),
                )
            behaviors[node] = behavior
        fault_plan = FaultPlan.from_nodes(behaviors)

    policy = CorrectionPolicy(
        jump_slack=draw(st.sampled_from([1.0, 0.0, -1.0]))
    )

    def build():
        return FastSimulation(
            graph,
            params,
            delay_model=delay_model,
            clock_rates=clock_rates,
            fault_plan=fault_plan,
            layer0=layer0,
            policy=policy,
            algorithm=algorithm,
        )

    return build


def assert_same_results(got, want, exact=True):
    for attr in (
        "times",
        "protocol_times",
        "corrections",
        "effective_corrections",
    ):
        got_arr, want_arr = getattr(got, attr), getattr(want, attr)
        if exact:
            np.testing.assert_array_equal(got_arr, want_arr, err_msg=attr)
        else:
            np.testing.assert_allclose(
                got_arr, want_arr, rtol=0.0, atol=1e-9,
                equal_nan=True, err_msg=attr,
            )
    if exact:
        np.testing.assert_array_equal(got.branches, want.branches)
        assert got.fault_sends == want.fault_sends


class TestStackedEquivalenceProperties:
    """Randomized mixed-geometry stacks == per-trial runs, bit for bit."""

    @HETERO_SETTINGS
    @given(data=st.data())
    def test_padded_stack_bit_identical_to_per_trial(self, data):
        algorithm = data.draw(st.sampled_from(["full", "simplified"]))
        builders = [
            data.draw(simulations(algorithm))
            for _ in range(data.draw(st.integers(2, 4)))
        ]
        sims = [build() for build in builders]
        assert stack_compatibility(sims) is None
        stacked = TrialStack(sims).run(NUM_PULSES)
        for result, build in zip(stacked, builders):
            assert_same_results(result, build().run(NUM_PULSES))

    @HETERO_SETTINGS
    @given(data=st.data())
    def test_padded_stack_close_to_scalar_reference(self, data):
        algorithm = data.draw(st.sampled_from(["full", "simplified"]))
        builders = [
            data.draw(simulations(algorithm)) for _ in range(2)
        ]
        sims = [build() for build in builders]
        stacked = TrialStack(sims).run(NUM_PULSES)
        for result, build in zip(stacked, builders):
            with scalar_reference():
                scalar = build().run(NUM_PULSES)
            assert_same_results(result, scalar, exact=False)

    @HETERO_SETTINGS
    @given(data=st.data())
    def test_padding_never_leaks_into_skew_reducers(self, data):
        """Padded cells are NaN and invisible to every stacked reducer."""
        diameters = data.draw(
            st.lists(st.sampled_from([4, 6, 8, 12]), min_size=2, max_size=4)
        )
        trials = [
            BatchTrial(
                config=standard_config(
                    d,
                    seed=data.draw(st.integers(0, 100)),
                    num_layers=data.draw(st.integers(2, 6)),
                    num_pulses=NUM_PULSES,
                )
            )
            for d in diameters
        ]
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for i, trial in enumerate(trials):
            graph = trial.config.graph
            depth, width = graph.num_layers, graph.width
            # Stacked matrices NaN-pad strictly outside the trial window.
            assert np.isnan(batch.times[i, :, depth:, :]).all()
            assert np.isnan(batch.times[i, :, :, width:]).all()
            reference = trial.simulation().run(NUM_PULSES)
            assert batch.max_local_skews()[i] == pytest.approx(
                max_local_skew(reference), abs=0.0
            )
            assert batch.max_inter_layer_skews()[i] == pytest.approx(
                max_inter_layer_skew(reference), abs=0.0
            )
            assert batch.overall_skews()[i] == pytest.approx(
                overall_skew(reference), abs=0.0
            )
            assert batch.global_skews()[i] == pytest.approx(
                global_skew(reference), abs=0.0
            )
            # Layers past this trial's depth exist only as padding: NaN in
            # the per-layer statistics, never silently zero.
            if depth < batch.times.shape[-2]:
                assert np.isnan(batch.local_skews()[i, depth:]).all()


class TestSameShapeDifferentTopology:
    """Equal (K, L, W) shapes must not short-circuit per-geometry skews.

    Regression: a cycle-9 and a complete-9 trial stack into same-shape
    matrices, but reducing both along trial 0's edge set silently
    under-reports the complete graph's skew.  Every BatchResult
    statistic must follow each trial's own edges, streamed or not.
    """

    def test_reducers_use_each_trials_own_edges(self):
        params = PARAMS_CHOICES[0]
        sims = [
            FastSimulation(
                LayeredGraph(base, 4),
                params,
                delay_model=StaticDelayModel(params.d, params.u, seed=seed),
            )
            for seed, base in enumerate([cycle_graph(9), complete_graph(9)])
        ]
        # Same (K, L, W) shape, different geometry.
        assert sims[0].graph.width == sims[1].graph.width
        assert len(
            {(sim.graph.num_layers, sim.graph.base.adjacency) for sim in sims}
        ) == 2
        results = TrialStack(sims).run(NUM_PULSES)
        streamed = TrialStack(sims).run(NUM_PULSES, store_times=False)
        for batch in (BatchResult(sims, results), BatchResult(sims, streamed)):
            stats = batch.correction_stats()
            for i, result in enumerate(results):
                # The array reducers on this trial's own window are the
                # independent reference for every accessor.
                times, graph = result.times, result.graph
                local = local_skew_layers(times, graph)
                inter = inter_layer_skew_layers(times, graph)
                np.testing.assert_array_equal(batch.local_skews()[i], local)
                np.testing.assert_array_equal(
                    batch.inter_layer_skews()[i], inter
                )
                assert batch.max_local_skews()[i] == local.max()
                assert batch.max_inter_layer_skews()[i] == inter.max()
                assert batch.overall_skews()[i] == overall_skew_layers(
                    times, graph
                )
                assert batch.max_local_skews()[i] == max_local_skew(result)
                assert batch.overall_skews()[i] == overall_skew(result)
                assert batch.global_skews()[i] == global_skew(result)
                want = fold_correction_planes(result.corrections[None])
                for key, values in want.items():
                    assert stats[key][i] == values[0], key


class TestStackedLayer0Fill:
    """stacked_pulse_times == per-schedule scalar pulse_time loops, bit
    for bit."""

    def _assert_stack_matches(self, schedules, bases):
        block = stacked_pulse_times(schedules, bases, range(NUM_PULSES))
        width = max(base.num_nodes for base in bases)
        assert block.shape == (len(schedules), NUM_PULSES, width)
        for s, (schedule, base) in enumerate(zip(schedules, bases)):
            np.testing.assert_array_equal(
                block[s, :, : base.num_nodes],
                [
                    [schedule.pulse_time(v, k) for v in base.nodes()]
                    for k in range(NUM_PULSES)
                ],
            )
            assert np.isnan(block[s, :, base.num_nodes:]).all()

    def test_mixed_schedule_types_and_widths(self):
        params = PARAMS_CHOICES[0]
        bases = [
            replicated_line(3),
            cycle_graph(7),
            replicated_line(5),
            cycle_graph(4),
            cycle_graph(6),
        ]
        schedules = [
            PerfectLayer0(params.Lambda),
            JitteredLayer0(params.Lambda, 7, params.kappa, seed=3),
            AlternatingLayer0(params.Lambda, params.kappa),
            ChainLayer0(params, chain_order=list(range(4))),
            ChainLayer0(
                params,
                chain_order=list(range(6)),
                delay_model=VaryingDelayModel(
                    params.d, params.u, 0.002, seed=1
                ),
            ),
        ]
        self._assert_stack_matches(schedules, bases)

    def test_mixed_lambdas_within_one_type(self):
        bases = [cycle_graph(5), cycle_graph(8)]
        schedules = [PerfectLayer0(2.0), PerfectLayer0(3.5)]
        self._assert_stack_matches(schedules, bases)

    def test_validation(self):
        with pytest.raises(ValueError, match="schedules"):
            stacked_pulse_times([PerfectLayer0(2.0)], [], range(NUM_PULSES))
        with pytest.raises(ValueError, match="pulses"):
            stacked_pulse_times(
                [PerfectLayer0(2.0)], [cycle_graph(3)], range(-1, NUM_PULSES)
            )

    @pytest.mark.parametrize("store_times", [False, True])
    def test_chain_run_leaves_schedule_untouched(self, store_times):
        # The stack fills a pulse-invariant chain by its hop sweep, block
        # by block, and never writes the schedule's scalar cache.
        params = PARAMS_CHOICES[1]
        sims = [
            FastSimulation(
                LayeredGraph(base, 3),
                params,
                delay_model=StaticDelayModel(params.d, params.u, seed=seed),
                layer0=ChainLayer0(
                    params,
                    list(base.nodes()),
                    delay_model=StaticDelayModel(params.d, params.u, seed=9),
                ),
            )
            for seed, base in enumerate([cycle_graph(16), cycle_graph(12)])
        ]
        stack = TrialStack(sims)
        stack.run(40, store_times=store_times)
        assert stack.compaction_stats["pulse_blocks"] > 1
        for sim in sims:
            assert not any(sim.layer0._chain_times)


def assert_matches_per_trial(batch, trials, num_pulses):
    """Every stacked trial equals its own per-trial run, bit for bit."""
    for got, trial in zip(batch.results, trials):
        want = trial.simulation().run(num_pulses)
        for attr in ("times", "corrections", "effective_corrections",
                     "branches"):
            np.testing.assert_array_equal(
                getattr(got, attr), getattr(want, attr), err_msg=attr
            )
        assert got.fault_sends == want.fault_sends


def thm11_style_trials(diameters=(4, 8, 16), seeds=(0, 1)):
    return [
        BatchTrial(config=standard_config(d, seed=s, num_pulses=NUM_PULSES))
        for d in diameters
        for s in seeds
    ]


class TestHeterogeneousGrouping:
    """Relaxed _stack_key: mixed-width sweeps are one stack group."""

    def test_mixed_width_sweep_is_one_group(self):
        trials = thm11_style_trials()
        keys = {_stack_key(trial) for trial in trials}
        assert len(keys) == 1
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        assert batch.stack_groups == [list(range(len(trials)))]
        assert batch.fallback_reasons == {}

    def test_mixed_width_sims_are_stack_compatible(self):
        sims = [trial.simulation() for trial in thm11_style_trials()]
        assert stack_compatibility(sims) is None

    def test_one_stack_matches_per_geometry_batches(self):
        trials = thm11_style_trials()
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for start in range(0, len(trials), 2):
            group = trials[start: start + 2]
            alone = BatchRunner(num_pulses=NUM_PULSES).run(group)
            for i, result in enumerate(alone.results):
                np.testing.assert_array_equal(
                    batch.results[start + i].times, result.times
                )

    def test_algorithms_still_split_groups(self):
        config = standard_config(4, num_pulses=NUM_PULSES)
        trials = [
            BatchTrial(config=config),
            BatchTrial(config=config, algorithm="simplified"),
        ]
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        assert sorted(len(g) for g in batch.stack_groups) == [1, 1]

    def test_process_sharding_deterministic_on_hetero_groups(self, monkeypatch):
        trials = thm11_style_trials(diameters=(4, 6, 8), seeds=(0, 1))
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for count in (2, 3):
            shards(monkeypatch, count)
            sharded = BatchRunner(num_pulses=NUM_PULSES).run(trials)
            np.testing.assert_array_equal(sharded.times, serial.times)
            np.testing.assert_array_equal(
                sharded.corrections, serial.corrections
            )
            # Shard-local stack groups re-offset to batch trial indices,
            # partitioning the whole batch in order.
            flattened = [i for group in sharded.stack_groups for i in group]
            assert flattened == list(range(len(trials)))


class TestDepthSkewCompaction:
    """Depth compaction never changes results, only the work done.

    Randomized and extreme (1-vs-512) per-trial layer counts through the
    compacted stack vs per-trial runs -- bit-identical -- plus the
    bookkeeping invariants: stack_groups / fallback_reasons survive row
    dropping, the per-group compaction
    stats account exactly for the layers each trial owns, and the skew
    reducers never see a compacted-away cell (layers a trial does not
    have stay NaN in its per-layer statistics).
    """

    @staticmethod
    def _depth_trials(depths, diameter=4, num_pulses=2):
        return [
            BatchTrial(
                config=standard_config(
                    diameter, seed=s, num_layers=d, num_pulses=num_pulses
                )
            )
            for s, d in enumerate(depths)
        ]

    @HETERO_SETTINGS
    @given(
        depths=st.lists(st.integers(1, 9), min_size=2, max_size=6),
        diameter=st.sampled_from([3, 5]),
    )
    def test_compaction_bit_identical_and_accounted(self, depths, diameter):
        trials = self._depth_trials(depths, diameter=diameter)
        compact = BatchRunner(num_pulses=2).run(trials)
        assert_matches_per_trial(compact, trials, 2)
        # Bookkeeping survives row dropping: still one stack group over
        # every trial, no fallbacks, and the stats account exactly for
        # the layer steps the trials own (fault-free: no dead rows).
        assert compact.stack_groups == [list(range(len(trials)))]
        assert compact.fallback_reasons == {}
        (stats,) = compact.compaction_stats
        assert stats["padded_row_steps"] == (
            2 * (max(depths) - 1) * len(depths)
        )
        assert stats["active_row_steps"] == 2 * sum(d - 1 for d in depths)

    @HETERO_SETTINGS
    @given(depths=st.lists(st.integers(1, 7), min_size=2, max_size=5))
    def test_skew_reducers_never_see_compacted_cells(self, depths):
        trials = self._depth_trials(depths)
        batch = BatchRunner(num_pulses=2).run(trials)
        local = batch.local_skews()
        for i, trial in enumerate(trials):
            depth = trial.config.graph.num_layers
            reference = trial.simulation().run(2)
            assert batch.max_local_skews()[i] == pytest.approx(
                max_local_skew(reference), abs=0.0
            )
            assert batch.overall_skews()[i] == pytest.approx(
                overall_skew(reference), abs=0.0
            )
            # Layers this trial never ran exist only as padding: NaN in
            # its per-layer statistics, never a fabricated 0.
            if depth < local.shape[1]:
                assert np.isnan(local[i, depth:]).all()
            assert np.isnan(batch.times[i, :, depth:, :]).all()

    def test_extreme_1_vs_512_layer_skew(self):
        """The acceptance cell: depths {1, 512} in one stack, bit-identical."""
        trials = self._depth_trials([1, 512, 1, 3])
        compact = BatchRunner(num_pulses=2).run(trials)
        assert_matches_per_trial(compact, trials, 2)
        (stats,) = compact.compaction_stats
        # 511 + 0 + 0 + 2 owned layer steps per pulse out of 511 * 4.
        assert stats["active_row_steps"] == 2 * (511 + 2)
        assert stats["padded_row_steps"] == 2 * 511 * 4
        assert stats["min_depth"] == 1 and stats["max_depth"] == 512
        # The depth-1 trials own no computed layers at all, yet their
        # layer-0 row and skew statistics are intact.
        assert np.isfinite(compact.times[0, :, 0, :5]).all()
        assert compact.max_local_skews().shape == (4,)

    def test_compaction_with_faults_matches_everywhere(self):
        """Dead-row dropping (a fully crashed layer) stays bit-identical."""
        config = standard_config(4, seed=9, num_layers=6, num_pulses=3)
        wipe = FaultPlan.from_nodes(
            {(v, 1): CrashFault() for v in range(config.graph.width)}
        )
        trials = [
            BatchTrial(config=config, fault_plan=wipe, label="wiped"),
            BatchTrial(
                config=standard_config(4, seed=10, num_layers=2, num_pulses=3)
            ),
            BatchTrial(
                config=standard_config(6, seed=11, num_layers=6, num_pulses=3)
            ),
        ]
        compact = BatchRunner(num_pulses=3).run(trials)
        assert_matches_per_trial(compact, trials, 3)
        (stats,) = compact.compaction_stats
        # The wiped trial goes dead above layer 1, so it executes fewer
        # row steps than its depth alone would grant.
        fault_free_budget = 3 * ((6 - 1) + (2 - 1) + (6 - 1))
        assert stats["active_row_steps"] < fault_free_budget


class TestFallbackReasons:
    """Only executor events (worker deaths) leave a reason on BatchResult."""

    def test_stacked_runs_record_no_reason(self):
        batch = BatchRunner(num_pulses=NUM_PULSES).run(thm11_style_trials())
        assert batch.fallback_reasons == {}
