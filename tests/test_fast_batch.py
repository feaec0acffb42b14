"""Tests for repro.core.fast_batch: the trial-stacked (S, W) kernel.

The stacked kernel promises bit-identical results to per-trial runs
(stacks of one: same NumPy expressions, extra leading axis) and
1e-9-close results to the scalar per-cell reference; these tests pin both over
random rates, random delays, mixed fault plans, non-pulse-invariant
delay models, callable rate providers, and heterogeneous batches that
must fall back group by group.
"""

import pickle

import numpy as np
import pytest

from repro.core.correction import CorrectionPolicy
from repro.core.fast import BRANCH_CODES, FastSimulation
from repro.core.fast_batch import TrialStack, stack_compatibility
from repro.delays.models import StaticDelayModel, VaryingDelayModel
from repro.experiments.batch import (
    BatchRunner,
    BatchTrial,
    CONFIG_RATES,
)
from repro.experiments.common import standard_config
from repro.experiments.thm13_random_faults import mixed_behavior_factory
from repro.faults import AdversarialLateFault, CrashFault, FaultPlan
from tests.test_fast_sim import scalar_reference

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

    def test_determinism_across_shard_counts(self):
        trials = random_fault_trials(seeds=(0, 1, 2, 3, 4))
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for shards in (2, 3):
            sharded = BatchRunner(
                num_pulses=NUM_PULSES, executor="process", shards=shards
            ).run(trials)
            np.testing.assert_array_equal(sharded.times, serial.times)
            np.testing.assert_array_equal(
                sharded.corrections, serial.corrections
            )
            np.testing.assert_array_equal(
                sharded.faulty_masks, serial.faulty_masks
            )
            for got, want in zip(sharded.results, serial.results):
                assert got.fault_sends == want.fault_sends

    def test_single_shard_short_circuits(self):
        trials = BatchRunner.seed_sweep(4, (0, 1), num_pulses=NUM_PULSES)
        batch = BatchRunner(
            num_pulses=NUM_PULSES, executor="process", shards=1
        ).run(trials)
        reference = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        np.testing.assert_array_equal(batch.times, reference.times)

    def test_executor_validation(self):
        with pytest.raises(ValueError, match="unknown executor"):
            BatchRunner(executor="threads")
        with pytest.raises(ValueError, match="shards"):
            BatchRunner(executor="process", shards=0)


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
        """``fallback_passes`` counts distinct (pulse, layer) steps.

        A spy records the step of every resolver call.  The stack makes
        one call per step, and its steps are exactly the steps in which
        some trial, run alone, has a fallback cell; alone, a trial's
        calls are its ``fallback_batches``.
        """
        steps = []
        resolve = TrialStack._run_fallback

        def spy(stack, *args):
            k, layer = args[-3], args[-2]
            steps.append((k, layer))
            return resolve(stack, *args)

        monkeypatch.setattr(TrialStack, "_run_fallback", spy)
        trials = _faulted_trials()
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        stats = batch.compaction_stats[0]
        stack_steps = list(steps)
        assert len(stack_steps) == len(set(stack_steps))
        assert stats["fallback_passes"] == len(stack_steps)
        assert 0 < stats["fallback_passes"] <= stats["fallback_batches"]
        union = set()
        for trial in trials:
            steps.clear()
            result = trial.simulation().run(NUM_PULSES)
            assert len(steps) == result.fallback_batches
            union.update(steps)
        assert set(stack_steps) == union

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
