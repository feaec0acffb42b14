"""Tests for repro.core.fast_batch: the trial-stacked (S, B, W) kernel.

The stacked kernel promises bit-identical results to per-trial runs
(stacks of one: same NumPy expressions, extra leading axis) and
1e-9-close results to the scalar per-cell reference; these tests pin both over
random rates, random delays, mixed fault plans, non-pulse-invariant
delay models, callable rate providers, and heterogeneous batches that
must fall back group by group.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.batch as batch_mod
from repro.analysis.skew import times_from_trace
from repro.core.correction import CorrectionPolicy
from repro.core.layer0 import JitteredLayer0
from repro.core.fast import (
    BRANCH_CODES,
    FastSimulation,
    _fallback_replay,
    _layer_step_kernel,
    _neighbor_bounds,
)
from repro.core.fast_batch import (
    TrialStack,
    _pulse_blocks,
    _StackRun,
    stack_compatibility,
)
from repro.core.network_sim import GridSimulation
from repro.delays.models import StaticDelayModel, VaryingDelayModel
from repro.experiments.batch import (
    BatchRunner,
    BatchTrial,
    CONFIG_RATES,
)
from repro.experiments.common import standard_config
from repro.experiments.thm13_random_faults import mixed_behavior_factory
from repro.faults import (
    AdversarialLateFault,
    ChaosCampaign,
    CrashFault,
    EdgeDown,
    EdgeUp,
    FaultPlan,
    FixedOffsetFault,
)
from repro.topology import (
    LayeredGraph,
    complete_graph,
    cycle_graph,
    replicated_line,
    sparse_layered,
)
from repro.topology.base_graph import degree_columns
from tests.conftest import shards
from tests.test_fast_sim import (
    PARAMS,
    assert_outputs_bitwise,
    axis_reduced_step,
    scalar_reference,
    step_inputs,
)

NUM_PULSES = 3


def random_fault_trials(seeds=(0, 1, 2, 3), diameter=6, probability=0.08):
    """Seed sweep where each trial carries its own random mixed fault plan."""

    def plans(config):
        return FaultPlan.random(
            config.graph,
            probability=probability,
            rng_or_seed=config.rng(salt=99),
            behavior_factory=mixed_behavior_factory,
        )

    return BatchRunner.seed_sweep(
        diameter, seeds, num_pulses=NUM_PULSES, fault_plan_factory=plans
    )


def reference_results(trials, scalar=False):
    """The one-simulation-at-a-time reference for a trial list.

    With ``scalar``, every cell goes through the scalar per-cell rule.
    """
    if scalar:
        with scalar_reference():
            return reference_results(trials)
    return [trial.simulation().run(NUM_PULSES) for trial in trials]


def assert_results_equal(results, references, exact=True):
    """Compare per-trial FastResults matrix by matrix (and fault sends)."""
    assert len(results) == len(references)
    for got, want in zip(results, references):
        for attr in (
            "times",
            "protocol_times",
            "corrections",
            "effective_corrections",
        ):
            got_arr = getattr(got, attr)
            want_arr = getattr(want, attr)
            if exact:
                np.testing.assert_array_equal(got_arr, want_arr, err_msg=attr)
            else:
                np.testing.assert_allclose(
                    got_arr,
                    want_arr,
                    rtol=0.0,
                    atol=1e-9,
                    equal_nan=True,
                    err_msg=attr,
                )
        np.testing.assert_array_equal(got.branches, want.branches)
        assert got.fault_sends == want.fault_sends


class TestStackedEquivalence:
    """TrialStack must reproduce the per-trial kernels exactly."""

    def test_fault_free_random_rates_and_delays(self):
        trials = BatchRunner.seed_sweep(6, range(5), num_pulses=NUM_PULSES)
        sims = [t.simulation() for t in trials]
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_equal(stacked, reference_results(trials))

    def test_mixed_fault_plans_match_per_trial_vectorized(self):
        trials = random_fault_trials()
        sims = [t.simulation() for t in trials]
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_equal(stacked, reference_results(trials))

    def test_mixed_fault_plans_match_scalar_reference(self):
        trials = random_fault_trials()
        sims = [t.simulation() for t in trials]
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_equal(
            stacked, reference_results(trials, scalar=True), exact=False
        )

    def test_via_max_fallback_cells(self):
        """A very late own-copy predecessor drives the via-H_max branch."""
        config = standard_config(5, num_pulses=NUM_PULSES)
        plan = FaultPlan.from_nodes({(2, 1): AdversarialLateFault(30.0)})
        trials = [
            BatchTrial(config=config, fault_plan=plan, label="late"),
            BatchTrial(config=config, label="clean"),
        ]
        sims = [t.simulation() for t in trials]
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_equal(stacked, reference_results(trials))
        assert (stacked[0].branches == BRANCH_CODES["via_max"]).any()

    def test_missing_message_fallback_cells(self):
        """Crashed predecessors exercise the missing-message regime."""
        config = standard_config(5, num_pulses=NUM_PULSES)
        plan = FaultPlan.from_nodes({(1, 2): CrashFault()})
        trials = [BatchTrial(config=config, fault_plan=plan)]
        sims = [t.simulation() for t in trials]
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_equal(stacked, reference_results(trials))

    def test_varying_delays_and_callable_rates(self):
        """Non-pulse-invariant delays and per-pulse rate callables stack."""
        config = standard_config(5, num_pulses=NUM_PULSES)
        params = config.params

        def drifty(node, pulse):
            v, layer = node
            return 1.0 + (params.vartheta - 1.0) * (
                ((v * 7 + layer * 3 + pulse) % 5) / 5.0
            )

        trials = [
            BatchTrial(
                config=config,
                delay_model=VaryingDelayModel(
                    params.d, params.u, max_step=params.u / 4.0, seed=seed
                ),
                clock_rates=drifty,
                label=f"vary-{seed}",
            )
            for seed in range(3)
        ]
        sims = [t.simulation() for t in trials]
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_equal(stacked, reference_results(trials))


class TestStackCompatibility:
    def test_compatible_batch_reports_none(self):
        trials = BatchRunner.seed_sweep(4, (0, 1), num_pulses=NUM_PULSES)
        assert stack_compatibility([t.simulation() for t in trials]) is None

    def test_simplified_algorithm_accepted(self):
        config = standard_config(4, num_pulses=NUM_PULSES)
        sims = [
            BatchTrial(config=config, algorithm="simplified").simulation()
            for _ in range(2)
        ]
        assert stack_compatibility(sims) is None

    def test_mixed_algorithms_rejected(self):
        config = standard_config(4, num_pulses=NUM_PULSES)
        sims = [
            BatchTrial(config=config).simulation(),
            BatchTrial(config=config, algorithm="simplified").simulation(),
        ]
        assert "algorithm" in stack_compatibility(sims)
        with pytest.raises(ValueError, match="cannot be stacked"):
            TrialStack(sims)

    def test_scalar_forced_rejected(self):
        # The stack is the only driver: no knob selects a scalar run.
        config = standard_config(4, num_pulses=NUM_PULSES)
        with pytest.raises(TypeError, match="vectorize"):
            BatchTrial(config=config).simulation(vectorize=False)
        with pytest.raises(TypeError, match="vectorize"):
            FastSimulation(config.graph, config.params, vectorize=False)

    def test_mismatched_params_stack_bit_identically(self):
        # Parameters used to split stacks; they now broadcast as (S, 1)
        # per-trial columns through the shared kernel.
        a = standard_config(4, num_pulses=NUM_PULSES)
        b = standard_config(
            4, num_pulses=NUM_PULSES, params=a.params.with_lambda(3.0)
        )
        trials = [BatchTrial(config=c) for c in (a, b)]
        sims = [t.simulation() for t in trials]
        assert stack_compatibility(sims) is None
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_equal(stacked, reference_results(trials))

    def test_mismatched_jump_slack_stacks_bit_identically(self):
        # jump_slack is numeric (a (S, 1) column in the kernel); only the
        # structural discretize/stick_to_median switches split stacks.
        config = standard_config(4, num_pulses=NUM_PULSES)
        trials = [
            BatchTrial(config=config),
            BatchTrial(config=config, policy=CorrectionPolicy(jump_slack=0.0)),
        ]
        sims = [t.simulation() for t in trials]
        assert stack_compatibility(sims) is None
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_equal(stacked, reference_results(trials))

    def test_mismatched_policy_structure_rejected(self):
        config = standard_config(4, num_pulses=NUM_PULSES)
        sims = [
            BatchTrial(config=config).simulation(),
            BatchTrial(
                config=config, policy=CorrectionPolicy(discretize=False)
            ).simulation(),
        ]
        assert "policy structure" in stack_compatibility(sims)
        with pytest.raises(ValueError, match="cannot be stacked"):
            TrialStack(sims)

    def test_mismatched_layers_stack_bit_identically(self):
        # Depth differences pad with inert layers instead of splitting.
        a = standard_config(4, num_pulses=NUM_PULSES)
        b = standard_config(4, num_layers=3, num_pulses=NUM_PULSES)
        trials = [BatchTrial(config=c) for c in (a, b)]
        sims = [t.simulation() for t in trials]
        assert stack_compatibility(sims) is None
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_equal(stacked, reference_results(trials))


class TestHeterogeneousBatches:
    """BatchRunner must stack what it can and fall back for the rest."""

    def test_mixed_algorithms_policies_and_faults(self):
        config = standard_config(5, num_pulses=NUM_PULSES)
        other_policy = CorrectionPolicy(discretize=False)
        plan = FaultPlan.from_nodes({(2, 2): CrashFault()})
        trials = [
            BatchTrial(config=config, label="full-a"),
            BatchTrial(config=config, algorithm="simplified", label="simpl"),
            BatchTrial(config=config, policy=other_policy, label="policy"),
            BatchTrial(config=config, fault_plan=plan, label="faulty"),
            BatchTrial(config=config, label="full-b"),
        ]
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        references = reference_results(trials)
        for i, reference in enumerate(references):
            np.testing.assert_array_equal(batch.times[i], reference.times)
            np.testing.assert_array_equal(
                batch.corrections[i], reference.corrections, err_msg=f"trial {i}"
            )

    def test_stack_disabled_matches_stacked(self):
        trials = random_fault_trials(seeds=(0, 1))
        stacked = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for i, trial in enumerate(trials):
            looped = trial.simulation().run(NUM_PULSES)
            np.testing.assert_array_equal(stacked.times[i], looped.times)
            np.testing.assert_array_equal(
                stacked.effective_corrections[i], looped.effective_corrections
            )


class TestProcessExecutor:
    """Same seeds => same BatchResult, regardless of the shard count."""

    def test_determinism_across_shard_counts(self, monkeypatch):
        trials = random_fault_trials(seeds=(0, 1, 2, 3, 4))
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for count in (2, 3):
            shards(monkeypatch, count)
            sharded = BatchRunner(num_pulses=NUM_PULSES).run(trials)
            np.testing.assert_array_equal(sharded.times, serial.times)
            np.testing.assert_array_equal(
                sharded.corrections, serial.corrections
            )
            np.testing.assert_array_equal(
                sharded.faulty_masks, serial.faulty_masks
            )
            for got, want in zip(sharded.results, serial.results):
                assert got.fault_sends == want.fault_sends

    def test_single_shard_short_circuits(self, monkeypatch):
        trials = BatchRunner.seed_sweep(4, (0, 1), num_pulses=NUM_PULSES)
        reference = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        shards(monkeypatch, 1)
        with mock.patch.object(batch_mod, "_worker_pool") as pool:
            batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        assert not pool.called
        np.testing.assert_array_equal(batch.times, reference.times)


class TestTrialPickling:
    """BatchTrial specs must survive the trip into worker processes."""

    def test_config_rates_sentinel_identity(self):
        trial = BatchTrial(config=standard_config(4, num_pulses=NUM_PULSES))
        clone = pickle.loads(pickle.dumps(trial))
        assert clone.clock_rates is CONFIG_RATES

    def test_pickled_trial_reproduces_results(self):
        trials = random_fault_trials(seeds=(0,))
        clone = pickle.loads(pickle.dumps(trials[0]))
        original = trials[0].simulation().run(NUM_PULSES)
        replayed = clone.simulation().run(NUM_PULSES)
        np.testing.assert_array_equal(replayed.times, original.times)

    def test_explicit_rates_override_survives(self):
        trial = BatchTrial(
            config=standard_config(4, num_pulses=NUM_PULSES), clock_rates=None
        )
        clone = pickle.loads(pickle.dumps(trial))
        assert clone.clock_rates is None

def _faulted_trials(n=4, seed0=0):
    trials = []
    for s in range(n):
        config = standard_config(6, seed=seed0 + s)
        plan = FaultPlan.random(config.graph, 0.10, rng_or_seed=seed0 + s)
        trials.append(BatchTrial(config=config, fault_plan=plan))
    return trials


class TestFallbackAccounting:
    def test_faulted_stack_counts_cells_and_batches(self):
        batch = BatchRunner(num_pulses=NUM_PULSES).run(_faulted_trials())
        assert len(batch.compaction_stats) == 1
        stats = batch.compaction_stats[0]
        # Random 10% fault plans guarantee fault-adjacent cells; each is
        # resolved by a batched replay, never a per-cell Python loop.
        assert stats["fallback_cells"] > 0
        assert stats["fallback_batches"] > 0
        assert stats["fallback_cells"] >= stats["fallback_batches"]
        # One stack-wide pass serves every trial of a layer step.
        assert 0 < stats["fallback_passes"] <= stats["fallback_batches"]
        # Per-cell scalar replays used to ride outside any accounting;
        # fallback_reasons stays reserved for whole-trial stack refusals.
        assert batch.fallback_reasons == {}

    def test_fault_free_stack_has_no_fallback(self):
        trials = [
            BatchTrial(config=standard_config(6, seed=s)) for s in range(3)
        ]
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        stats = batch.compaction_stats[0]
        assert stats["fallback_cells"] == 0
        assert stats["fallback_batches"] == 0
        assert stats["fallback_passes"] == 0

    def test_one_pass_per_layer_step_with_fallback_cells(self, monkeypatch):
        """``fallback_passes`` counts distinct (block, layer) steps.

        A spy records the step of every resolver call and the (pulse,
        layer) steps of its cells.  The stack makes one call per block
        step, and its (pulse, layer) steps are exactly those in which
        some trial, run alone, has a fallback cell; alone, a trial's
        (pulse, layer) steps are its ``fallback_batches``.
        """
        steps, pulse_steps = [], []
        resolve = _StackRun.fallback

        def spy(run, *args):
            # Materialized runs store pulse k in row k, so the block's
            # first row rk is its first pulse; ``cells`` carry each
            # rejected cell's pulse within the block.
            (_, pulses, _), layer, rk = args[-3:]
            steps.append((rk, layer))
            pulse_steps.append({(rk + int(j), layer) for j in np.unique(pulses)})
            return resolve(run, *args)

        monkeypatch.setattr(_StackRun, "fallback", spy)
        trials = _faulted_trials()
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        stats = batch.compaction_stats[0]
        assert stats["block_pulses"] > 1, stats
        stack_steps = list(steps)
        stack_pulse_steps = set().union(*pulse_steps)
        assert len(stack_steps) == len(set(stack_steps))
        assert stats["fallback_passes"] == len(stack_steps)
        assert 0 < stats["fallback_passes"] < stats["fallback_batches"]
        union = set()
        for trial in trials:
            steps.clear()
            pulse_steps.clear()
            result = trial.simulation().run(NUM_PULSES)
            alone = set().union(*pulse_steps)
            assert len(alone) == result.fallback_batches
            union.update(alone)
        assert stack_pulse_steps == union

    def test_gather_is_one_call_per_trial_and_warm_runs_query_nothing(
        self, monkeypatch
    ):
        calls = []
        original = StaticDelayModel.delay

        def counting(model, edge, pulse=0):
            calls.append(isinstance(edge[0][0], np.ndarray))
            return original(model, edge, pulse)

        monkeypatch.setattr(StaticDelayModel, "delay", counting)
        trials = _faulted_trials(seed0=50)
        runner = BatchRunner(num_pulses=NUM_PULSES)
        cold = runner.run(trials)
        # One array-valued call per trial covers all its layers; the rest
        # are the layer-0 chain's scalar queries.
        assert sum(calls) == len(trials)
        calls.clear()
        warm = runner.run(trials)
        assert warm.compaction_stats[0]["fallback_cells"] > 0
        # The batched fallback reads the gathered arrays too.
        assert calls == []
        for got, want in zip(warm.results, cold.results):
            np.testing.assert_array_equal(got.times, want.times)

    def test_single_simulation_accounts_fallback(self):
        config = standard_config(6, seed=1)
        plan = FaultPlan.random(config.graph, 0.10, rng_or_seed=1)
        sim = FastSimulation(
            config.graph,
            config.params,
            delay_model=config.delay_model,
            clock_rates=config.clock_rates,
            fault_plan=plan,
        )
        result = sim.run(NUM_PULSES)
        assert result.fallback_cells > 0
        assert result.fallback_batches > 0


@st.composite
def masked_planes(draw):
    """Neighbor copies of an ``(S, B, W)`` plane on an entry axis.

    Lanes draw their degrees (0 to 3), and with a hub one lane's degree
    is far above the rest, which leaves many partly valid columns.
    Returns ``(values, indptr, valid)``: ``(S, B, E)`` values mixing
    finite floats with NaN and +-inf, the axis, and per-row ``(S, E)``
    validity in which lane 0 of row 0 has no valid copy.
    """
    lead = tuple(draw(st.integers(1, n)) for n in (3, 4, 5))
    degree = draw(st.lists(st.integers(0, 3), min_size=lead[2], max_size=lead[2]))
    if draw(st.booleans()):
        degree[draw(st.integers(0, lead[2] - 1))] = draw(st.integers(4, 12))
    indptr = np.concatenate(([0], np.cumsum(degree))).astype(np.int64)
    size = int(np.prod(lead[:2])) * int(indptr[-1])
    element = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    values = np.array(
        draw(st.lists(element, min_size=size, max_size=size)), dtype=float
    ).reshape(lead[:2] + (-1,))
    valid = np.array(
        draw(st.lists(st.booleans(), min_size=lead[0] * int(indptr[-1]),
                      max_size=lead[0] * int(indptr[-1]))),
        dtype=bool,
    ).reshape(lead[0], -1)
    valid[0, indptr[0] : indptr[1]] = False
    return values, indptr, valid


class TestColumnFold:
    """The kernel's column-fold H_min / H_max against the axis reduction."""

    @settings(max_examples=200, deadline=None)
    @given(plane=masked_planes())
    def test_column_fold_is_the_reduction_bitwise(self, plane):
        # Zero send times and unit rates: the lane values are the delays,
        # through the kernel's own arithmetic (so -0.0 turns +0.0 in both).
        values, indptr, valid = plane
        lead = values.shape[:2] + (indptr.size - 1,)
        prev, rate = np.zeros(lead), np.ones(lead)
        sources = np.zeros(valid.shape, dtype=np.int64)
        columns = degree_columns(indptr, sources, valid)
        got = _neighbor_bounds(prev, values, rate, columns)
        # The same copies padded out by degree slot, masked, reduced.
        degree = np.diff(indptr)
        slots = np.arange(max(degree.max(initial=0), 1)) < degree[:, None]
        padded = np.zeros(lead + slots.shape[-1:])
        padded[..., slots] = values
        mask = np.zeros((lead[0], 1) + slots.shape, dtype=bool)
        mask[:, 0, slots] = valid
        h_nb = rate[..., None] * (prev[..., None] + padded)
        for bound, ufunc, identity in zip(
            got, (np.minimum, np.maximum), (np.inf, -np.inf)
        ):
            want = ufunc.reduce(np.where(mask, h_nb, identity), axis=-1)
            assert bound.shape == want.shape
            assert bound.dtype == want.dtype
            np.testing.assert_array_equal(
                bound.view(np.uint64), want.view(np.uint64), err_msg=str(ufunc)
            )

    def test_no_columns_is_the_identity(self):
        h_min, h_max = _neighbor_bounds(
            np.zeros((2, 3)), np.empty((2, 0)), np.ones((2, 3)), ()
        )
        np.testing.assert_array_equal(h_min, np.full((2, 3), np.inf))
        np.testing.assert_array_equal(h_max, np.full((2, 3), -np.inf))

    @pytest.mark.parametrize("simplified", [False, True])
    @pytest.mark.parametrize(
        "base",
        [
            replicated_line(9),
            cycle_graph(9),
            sparse_layered(40, 2, num_hubs=1, hub_degree=9).base,
        ],
        ids=["replicated_line", "cycle", "hub"],
    )
    def test_kernel_is_the_masked_reduction_bitwise(self, base, simplified):
        """The whole layer step, from the shared plan and from per-trial
        rows, against the masked axis reduction of the padded tensor."""
        inputs = step_inputs(base)
        args = (PARAMS, CorrectionPolicy(), simplified)
        want = axis_reduced_step(base, *inputs, *args, True)
        assert want[0].any() and not want[0].all()
        prev, own_delay, nb_delay, rate, eligible = inputs
        shared = base.neighbor_columns()
        # A partly valid column: the replicated line's ends, the hub.
        assert any(column[2] is not None for column in shared) is (
            base.min_degree() < base.max_degree()
        )
        indptr, indices = base.neighbor_csr()
        rows = np.broadcast_to(indices, (prev.shape[0], indices.size))
        per_trial = degree_columns(indptr, rows, np.ones(rows.shape, dtype=bool))
        for columns in (shared, per_trial):
            got = _layer_step_kernel(
                prev, own_delay, nb_delay, rate, columns, eligible, *args
            )
            assert_outputs_bitwise(got, want)
        # Without the planes: the same step, no codes, no effective.
        lean = _layer_step_kernel(
            prev, own_delay, nb_delay, rate, shared, eligible, *args, False
        )
        assert_outputs_bitwise(lean, want[:2] + (None,) + want[3:4] + (None,))


class TestEntryAxis:
    """Padded stacks on the union entry axis; no ``(W, max_deg)`` table."""

    PULSES = 6

    @staticmethod
    def builders(algorithm="full"):
        """A hub trial, a narrower and deeper replicated line, and a
        campaign trial whose second epoch brings an edge back, so vertex
        0's degree there (6) tops every other trial's and epoch's."""
        hub = sparse_layered(24, 4, num_hubs=1, hub_degree=8)
        line = LayeredGraph(replicated_line(6), 5)
        dense = LayeredGraph(complete_graph(7), 4)
        campaign = ChaosCampaign(
            dense.base, 4, [EdgeDown(pulse=0, edge=(0, 1)), EdgeUp(pulse=3, edge=(0, 1))]
        )
        cases = [
            (hub, {(23, 1): FixedOffsetFault(0.3)}, None),
            (line, {(2, 1): CrashFault()}, None),
            (dense, {(0, 1): FixedOffsetFault(0.2)}, campaign),
        ]
        return [
            lambda graph=graph, faults=faults, campaign=campaign: FastSimulation(
                graph,
                PARAMS,
                delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=7),
                fault_plan=FaultPlan.from_nodes(faults),
                campaign=campaign,
                algorithm=algorithm,
            )
            for graph, faults, campaign in cases
        ]

    @pytest.mark.parametrize("store_times", [True, False])
    @pytest.mark.parametrize("algorithm", ["full", "simplified"])
    def test_faulted_padded_stack_matches_stacks_of_one(self, algorithm, store_times):
        builders = self.builders(algorithm)
        alone = [build().run(self.PULSES) for build in builders]
        step = _StackRun.layer_step
        with mock.patch.object(
            _StackRun, "layer_step", autospec=True, side_effect=step
        ) as steps:
            stacked = TrialStack([build() for build in builders]).run(
                self.PULSES, store_times
            )
        run = steps.call_args_list[0].args[0]
        # Vertex 0's union degree comes from the campaign's second epoch.
        assert run.valid is not None
        assert run.indptr[1] - run.indptr[0] == 6
        assert stacked[2].churn_stats["epochs"] == 2
        for got, want in zip(stacked, alone):
            assert want.fault_sends and got.fault_sends == want.fault_sends
            assert got.fallback_cells == want.fallback_cells
            if store_times:
                for name in ("times", "protocol_times", "corrections",
                             "effective_corrections", "branches"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            else:
                assert got.times is None
                layers = want.graph.num_layers
                assert [got.local_skew(layer) for layer in range(layers)] == [
                    want.local_skew(layer) for layer in range(layers)
                ]
                assert got.global_skew() == want.global_skew()

    def test_faulty_hub_matches_the_engine(self):
        # A late hub's successors (degree 60, the hub's own copy) and the
        # ring's (4 or 5) fall back in one pass, replayed in two degree
        # classes; the event engine is the independent reference.
        graph = sparse_layered(200, 3, num_hubs=1, hub_degree=60)
        hub = graph.width - 1
        model = StaticDelayModel(PARAMS.d, PARAMS.u, seed=5)
        plan = FaultPlan.from_nodes(
            {(hub, 1): FixedOffsetFault(0.004), (3, 1): CrashFault()}
        )
        layer0 = JitteredLayer0(PARAMS.Lambda, graph.width, PARAMS.kappa, seed=5)
        with mock.patch(
            "repro.core.fast_batch._fallback_replay", wraps=_fallback_replay
        ) as replay:
            fast = FastSimulation(
                graph, PARAMS, delay_model=model, fault_plan=plan, layer0=layer0
            ).run(3)
        widths = {call.args[0].shape[1] for call in replay.call_args_list}
        assert min(widths) <= 17 < 61 <= max(widths)
        assert fast.fallback_cells > 60
        trace = GridSimulation(
            graph, PARAMS, delay_model=model, fault_plan=plan, layer0=layer0
        ).run(3)
        event = times_from_trace(trace, graph, 3)
        np.testing.assert_array_equal(np.isnan(event), np.isnan(fast.times))
        np.testing.assert_allclose(
            event, fast.times, rtol=0.0, atol=1e-9, equal_nan=True
        )

    @pytest.mark.parametrize("store_times", [True, False])
    def test_no_run_allocates_a_degree_table(self, store_times):
        import tracemalloc

        # A crashed hub: its successors, the hub among them, all go
        # through the fallback.
        graph = sparse_layered(3000, 3, num_hubs=1, hub_degree=2000)
        width, max_deg = graph.width, graph.base.max_degree()
        model = StaticDelayModel(PARAMS.d, PARAMS.u, seed=3)
        plan = FaultPlan.from_nodes({(width - 1, 1): CrashFault()})

        def run():
            return FastSimulation(
                graph, PARAMS, delay_model=model, fault_plan=plan
            ).run(2, store_times)

        run()  # the graph's shared structure and the delays, cached
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.fallback_cells > max_deg
        # Less than one byte per (vertex, degree slot): not even a bool
        # (W, max_deg) table was alive.
        assert peak < width * max_deg, (peak, width * max_deg)


class TestPulseBlocks:
    """The one block rule: B = min(K, 14336 // (S W), max(1, 2 (K - 8.5) L
    // 102, min(L // 4, 6144 // (S W)), 512 // (S W))), in balanced
    blocks."""

    @staticmethod
    def assert_blocks(blocks, num_pulses, size):
        """``blocks`` tile the horizon in ``ceil(K / size)`` balanced
        blocks of ``size`` pulses or one fewer."""
        sizes = [k1 - k0 for k0, k1 in blocks]
        assert max(sizes) == size and min(sizes) >= size - 1, sizes
        assert len(blocks) == -(-num_pulses // size)
        assert blocks[0][0] == 0 and blocks[-1][1] == num_pulses
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))

    @pytest.mark.parametrize(
        "num_pulses, plane_cells, size",
        [
            (64, 16 * 35, 4),  # two thirds of what F L leaves of K L: 4
            (32, 64 * 35, 1),  # 2 (K - F) L / 3 R = 1.8, L // 4 = 1
            (48, 24 * 11, 3),  # 2 (K - F) L / 3 R = 3.1
            (8, 16 * 35, 1),  # K < F and L // 4 = 1: one pulse per block
            (8, 1, 8),  # the 512-cell floor, capped by the horizon
            (1000, 4096, 3),  # the plane cap: 3 x 4096 <= 14336 cells
            (1000, 8192, 1),  # two pulses would pass the plane cap
            (1000, 1000, 14),  # 14336 // 1000 = 14, 72 balanced blocks
        ],
    )
    def test_block_size(self, num_pulses, plane_cells, size):
        """The rule on a four-layer stack."""
        self.assert_blocks(
            _pulse_blocks(num_pulses, 4, plane_cells), num_pulses, size
        )

    @pytest.mark.parametrize(
        "num_pulses, num_layers, plane_cells, size",
        [
            (64, 32, 16 * 35, 22),  # stream_horizon: 14336 // 560 = 25, balanced
            (8, 32, 17 * 35, 8),  # fault_horizon: K <= L // 4, plane under 6144
            (4, 32, 8 * 35, 4),  # cold_sweep: 8 fresh trials, D = 32
            (4, 16, 2 * 19, 4),  # service_mix: D = 16 shards of 2 ...
            (4, 16, 4 * 19, 4),  # ... or of 4 trials
            (48, 8, 24 * 11, 6),  # the streamed memory contract
            (16, 32, 32 * 35, 4),  # the short-horizon memory contract
            (32, 32, 64 * 35, 6),  # the S = 64, K = 32 streaming bench
            (8, 32, 64 * 35, 2),  # the knee: 6144 // 2240 = 2
            (3, 4, 24 * 11, 1),
            (1000, 4, 100, 77),  # 2 (K - F) L / 3 R = 77.8
            (40, 2, 100, 5),  # the 512-cell floor
        ],
    )
    def test_block_size_of_the_workloads(
        self, num_pulses, num_layers, plane_cells, size
    ):
        self.assert_blocks(
            _pulse_blocks(num_pulses, num_layers, plane_cells), num_pulses, size
        )

    def test_blocks_never_span_an_epoch_entry(self):
        starts = [0, 5, 6, 13, 40, 64, 99]
        blocks = _pulse_blocks(64, 1, 128, starts)
        assert blocks[0][0] == 0 and blocks[-1][1] == 64
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(0 < k1 - k0 <= 4 for k0, k1 in blocks)
        firsts = {k0 for k0, _ in blocks}
        assert {5, 6, 13, 40} <= firsts
        for k0, k1 in blocks:
            assert not any(k0 < k < k1 for k in starts)

    @settings(max_examples=300, deadline=None)
    @given(
        num_pulses=st.integers(1, 300),
        num_layers=st.integers(1, 200),
        plane_cells=st.integers(1, 40_000),
        starts=st.lists(st.integers(-5, 320), max_size=8),
    )
    def test_block_properties(self, num_pulses, num_layers, plane_cells, starts):
        """Over random horizons, depths, planes and epoch entries: the
        blocks tile the horizon, never span an epoch entry, differ by at
        most one pulse inside a segment, and a multi-pulse block's plane
        never passes 16,384 cells."""
        blocks = _pulse_blocks(num_pulses, num_layers, plane_cells, starts)
        assert blocks[0][0] == 0 and blocks[-1][1] == num_pulses
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        cuts = sorted({0, num_pulses, *(k for k in starts if 0 < k < num_pulses)})
        for start, end in zip(cuts, cuts[1:]):
            sizes = [k1 - k0 for k0, k1 in blocks if start <= k0 < end]
            assert sum(sizes) == end - start
            assert max(sizes) - min(sizes) <= 1, sizes
        for k0, k1 in blocks:
            assert k1 > k0
            assert not any(k0 < k < k1 for k in starts)
            if k1 - k0 > 1:
                assert (k1 - k0) * plane_cells <= 16_384

    def test_compaction_stats_report_the_blocks(self):
        for diameter, trials, num_pulses, blocks in (
            (4, 1, 40, (40, 1)),  # a 7-cell plane: the 512-cell floor
            (4, 1, NUM_PULSES, (NUM_PULSES, 1)),
            (32, 17, 8, (8, 1)),  # the fault_horizon shape: one block
            (32, 8, 4, (4, 1)),  # the cold_sweep shape: one block
            (8, 24, 48, (6, 8)),  # the streamed memory contract
        ):
            sims = []
            for seed in range(trials):
                config = standard_config(diameter, seed=seed)
                sims.append(FastSimulation(config.graph, config.params))
            for store_times in (False, True):
                stack = TrialStack(sims)
                stack.run(num_pulses, store_times=store_times)
                stats = stack.compaction_stats
                assert (stats["block_pulses"], stats["pulse_blocks"]) == blocks
