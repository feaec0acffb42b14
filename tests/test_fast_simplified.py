"""Tests for the simplified (Algorithm 1) kernel path.

Algorithm 1 waits for every message unconditionally, so the fault-free
case is a fixed gather -- a pure array op with no do-until replay.  These
tests pin the promises of the simplified kernel, mirroring the full-path
coverage of ``tests/test_fast_batch.py``:

* per-trial kernel results are bit-identical to the scalar per-cell
  reference (fault-free, fault-adjacent fallback, oscillation workloads);
* the trial-stacked ``(S, W)`` branch is bit-identical to both;
* ``BatchRunner``/``TrialStack`` accept simplified trials (no ``None``
  stack key) and group them separately from full-algorithm trials.
"""

import numpy as np

from repro.core.correction import CorrectionPolicy
from repro.core.fast import BRANCH_CODES, FastSimulation
from repro.core.fast_batch import TrialStack, stack_compatibility
from repro.core.layer0 import AlternatingLayer0
from repro.delays.models import AdversarialSplitDelays
from repro.experiments.batch import BatchRunner, BatchTrial, _stack_key
from repro.experiments.common import standard_config
from repro.experiments.fig5_jump import run_fig5
from repro.experiments.thm13_random_faults import mixed_behavior_factory
from repro.faults import AdversarialLateFault, CrashFault, FaultPlan
from repro.params import Parameters
from repro.topology import LayeredGraph, cycle_graph
from tests.test_fast_sim import scalar_reference

NUM_PULSES = 3

PARAMS = Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0)


def simplified_trials(seeds=(0, 1, 2, 3), diameter=6, fault_plan_factory=None):
    """Seed sweep running Algorithm 1 semantics per trial."""
    trials = BatchRunner.seed_sweep(
        diameter,
        seeds,
        num_pulses=NUM_PULSES,
        fault_plan_factory=fault_plan_factory,
    )
    for trial in trials:
        trial.algorithm = "simplified"
    return trials


def random_fault_plans(config):
    return FaultPlan.random(
        config.graph,
        probability=0.08,
        rng_or_seed=config.rng(salt=99),
        behavior_factory=mixed_behavior_factory,
    )


def reference_results(trials, scalar=False):
    """Per-trial runs; with ``scalar``, through the scalar reference."""
    if scalar:
        with scalar_reference():
            return reference_results(trials)
    return [trial.simulation().run(NUM_PULSES) for trial in trials]


def assert_results_identical(results, references):
    """Bit-identical FastResult comparison, matrix by matrix."""
    assert len(results) == len(references)
    for got, want in zip(results, references):
        for attr in (
            "times",
            "protocol_times",
            "corrections",
            "effective_corrections",
        ):
            np.testing.assert_array_equal(
                getattr(got, attr), getattr(want, attr), err_msg=attr
            )
        np.testing.assert_array_equal(got.branches, want.branches)
        assert got.fault_sends == want.fault_sends


class TestVectorizedSimplified:
    """Per-trial Algorithm 1 kernel vs the scalar per-cell reference."""

    def test_fault_free_bit_identical_to_scalar(self):
        trials = simplified_trials()
        vectorized = reference_results(trials)
        scalar = reference_results(trials, scalar=True)
        assert_results_identical(vectorized, scalar)

    def test_fault_free_uses_correction_branches_everywhere(self):
        (trial,) = simplified_trials(seeds=(0,))
        result = trial.simulation().run(NUM_PULSES)
        upper = result.branches[:, 1:, :]
        assert np.isin(
            upper,
            [BRANCH_CODES["mid"], BRANCH_CODES["low"], BRANCH_CODES["high"]],
        ).all()
        assert not np.isnan(result.times).any()

    def test_fault_adjacent_cells_fall_back_to_scalar(self):
        """A late Byzantine predecessor drives the exact batched fallback."""
        config = standard_config(5, num_pulses=NUM_PULSES)
        plan = FaultPlan.from_nodes({(2, 1): AdversarialLateFault(30.0)})
        trials = [
            BatchTrial(config=config, fault_plan=plan, algorithm="simplified"),
        ]
        assert_results_identical(
            reference_results(trials),
            reference_results(trials, scalar=True),
        )

    def test_crashed_predecessor_deadlocks_identically(self):
        """Algorithm 1 deadlocks downstream of a crash on both paths."""
        config = standard_config(5, num_pulses=NUM_PULSES)
        plan = FaultPlan.from_nodes({(1, 2): CrashFault()})
        trials = [
            BatchTrial(config=config, fault_plan=plan, algorithm="simplified"),
        ]
        vectorized = reference_results(trials)
        assert_results_identical(
            vectorized, reference_results(trials, scalar=True)
        )
        # The crash starves its successors of messages they wait on forever.
        assert np.isnan(vectorized[0].times[:, 3:, 1]).all()

    def test_oscillation_workload_bit_identical(self):
        """The Figure 5 setup: zigzag layer 0, adversarial parity delays."""

        def build():
            base = cycle_graph(16)
            graph = LayeredGraph(base, 16)
            layer0 = AlternatingLayer0(PARAMS.Lambda, 4.0 * PARAMS.kappa)
            delays = AdversarialSplitDelays(
                PARAMS.d, PARAMS.u, lambda edge: edge[0][0] % 2 == 0
            )
            return FastSimulation(
                graph,
                PARAMS,
                delay_model=delays,
                layer0=layer0,
                policy=CorrectionPolicy(jump_slack=-1.0),
                algorithm="simplified",
            ).run(2)

        vec = build()
        with scalar_reference():
            scalar = build()
        np.testing.assert_array_equal(vec.times, scalar.times)
        np.testing.assert_array_equal(vec.corrections, scalar.corrections)

    def test_fig5_driver_matches_scalar(self):
        fast = run_fig5(diameter=8, num_pulses=2)
        # Re-run the driver with every cell on the scalar per-cell rule.
        with scalar_reference():
            slow = run_fig5(diameter=8, num_pulses=2)
        assert fast.amplitude_with_jc == slow.amplitude_with_jc
        assert fast.amplitude_without_jc == slow.amplitude_without_jc


class TestStackedSimplified:
    """The (S, W) simplified branch of TrialStack."""

    def test_fault_free_stack_matches_per_trial_and_scalar(self):
        trials = simplified_trials(seeds=(0, 1, 2, 3, 4))
        sims = [t.simulation() for t in trials]
        assert stack_compatibility(sims) is None
        stacked = TrialStack(sims).run(NUM_PULSES)
        assert_results_identical(stacked, reference_results(trials))
        assert_results_identical(
            stacked, reference_results(trials, scalar=True)
        )

    def test_mixed_fault_plans_match_scalar_reference(self):
        trials = simplified_trials(fault_plan_factory=random_fault_plans)
        stacked = TrialStack([t.simulation() for t in trials]).run(NUM_PULSES)
        assert_results_identical(
            stacked, reference_results(trials, scalar=True)
        )

    def test_batch_runner_stacks_simplified_groups(self):
        """Simplified trials get a real stack key and group together."""
        trials = simplified_trials(seeds=(0, 1, 2))
        keys = {_stack_key(t) for t in trials}
        assert len(keys) == 1
        assert None not in keys
        full_key = _stack_key(BatchTrial(config=trials[0].config))
        assert full_key not in keys
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for i, reference in enumerate(reference_results(trials)):
            np.testing.assert_array_equal(batch.times[i], reference.times)

    def test_heterogeneous_batch_with_both_algorithms(self):
        config = standard_config(5, num_pulses=NUM_PULSES)
        plan = FaultPlan.from_nodes({(2, 2): CrashFault()})
        trials = [
            BatchTrial(config=config, algorithm="simplified", label="s-a"),
            BatchTrial(config=config, label="full"),
            BatchTrial(
                config=config,
                fault_plan=plan,
                algorithm="simplified",
                label="s-faulty",
            ),
            BatchTrial(config=config, algorithm="simplified", label="s-b"),
        ]
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for i, reference in enumerate(reference_results(trials)):
            np.testing.assert_array_equal(
                batch.times[i], reference.times, err_msg=f"trial {i}"
            )
            np.testing.assert_array_equal(
                batch.corrections[i], reference.corrections, err_msg=f"trial {i}"
            )
