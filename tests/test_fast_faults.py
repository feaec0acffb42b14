"""Tests for the fast simulator under faults: containment and envelopes."""

import math

import numpy as np
import pytest

from repro.core.correction import CorrectionPolicy
from repro.core.fast import BRANCH_CODES
from repro.faults import (
    AdversarialEarlyFault,
    AdversarialLateFault,
    ByzantineRandomFault,
    CrashFault,
    FaultPlan,
    FixedOffsetFault,
)
from tests.test_fast_sim import (
    PARAMS,
    assert_results_equivalent,
    noisy_sim,
    scalar_reference,
)


def faulty_sim(plan, diameter=8, seed=0, **kwargs):
    sim = noisy_sim(diameter=diameter, seed=seed, **kwargs)
    sim.fault_plan = plan
    return sim


def scalar_run(plan, num_pulses, **kwargs):
    """``faulty_sim(plan, **kwargs)`` run through the scalar reference."""
    with scalar_reference():
        return faulty_sim(plan, **kwargs).run(num_pulses)


FAULT_NODE = (4, 3)


class TestCrashFault:
    def test_faulty_node_masked(self):
        plan = FaultPlan.from_nodes({FAULT_NODE: CrashFault()})
        result = faulty_sim(plan).run(3)
        assert np.isnan(result.times[:, 3, 4]).all()
        assert result.faulty_mask[3, 4]

    def test_correct_nodes_all_pulse(self):
        plan = FaultPlan.from_nodes({FAULT_NODE: CrashFault()})
        result = faulty_sim(plan).run(3)
        mask = result.faulty_mask
        assert not np.isnan(result.times[:, ~mask]).any()

    def test_skew_contained(self):
        plan = FaultPlan.from_nodes({FAULT_NODE: CrashFault()})
        result = faulty_sim(plan).run(3)
        assert result.max_local_skew() <= PARAMS.worst_case_fault_bound(8, 1)

    def test_crash_successor_uses_via_max_branch(self):
        plan = FaultPlan.from_nodes({FAULT_NODE: CrashFault()})
        result = faulty_sim(plan).run(3)
        # (4, 4)'s own predecessor is silent -> own-missing branch.
        assert result.branches[0, 4, 4] == BRANCH_CODES["via_max"]

    def test_fault_sends_recorded_as_none(self):
        plan = FaultPlan.from_nodes({FAULT_NODE: CrashFault()})
        result = faulty_sim(plan).run(2)
        sends = {
            succ: pulses
            for (node, succ), pulses in result.fault_sends.items()
            if node == FAULT_NODE
        }
        assert sends
        assert all(t is None for pulses in sends.values() for t in pulses.values())


class TestTimingFaults:
    @pytest.mark.parametrize(
        "behavior",
        [
            AdversarialLateFault(30.0),
            AdversarialEarlyFault(30.0),
            FixedOffsetFault(0.5),
            ByzantineRandomFault(span=0.6, seed=3),
        ],
    )
    def test_single_fault_contained(self, behavior):
        plan = FaultPlan.from_nodes({FAULT_NODE: behavior})
        result = faulty_sim(plan).run(3)
        bound = PARAMS.worst_case_fault_bound(8, 1)
        assert result.max_local_skew() <= bound

    def test_corollary_4_29_envelope(self):
        """Nodes with one faulty predecessor still pulse inside
        [t_min + Lambda - 2k, t_max + Lambda + 2k] of their correct
        predecessors (Corollary 4.29)."""
        plan = FaultPlan.from_nodes({FAULT_NODE: AdversarialLateFault(40.0)})
        result = faulty_sim(plan).run(3)
        graph = result.graph
        kappa = PARAMS.kappa
        for k in range(3):
            for layer in range(1, graph.num_layers):
                for v in graph.base.nodes():
                    node = (v, layer)
                    preds = graph.predecessors(node)
                    if not any(p == FAULT_NODE for p in preds):
                        continue
                    correct_times = [
                        result.times[k, pl, pv]
                        for (pv, pl) in preds
                        if (pv, pl) != FAULT_NODE
                    ]
                    t = result.times[k, layer, v]
                    assert (
                        min(correct_times) + PARAMS.Lambda - 2 * kappa - 1e-9
                        <= t
                        <= max(correct_times) + PARAMS.Lambda + 2 * kappa + 1e-9
                    )

    def test_protocol_times_defined_for_faulty_nodes(self):
        plan = FaultPlan.from_nodes({FAULT_NODE: AdversarialLateFault(10.0)})
        result = faulty_sim(plan).run(2)
        assert not math.isnan(result.protocol_times[0, 3, 4])
        # The fault's send time is the protocol time plus the lag.
        send = result.fault_sends[(FAULT_NODE, (4, 4))][0]
        assert send == pytest.approx(
            result.protocol_times[0, 3, 4] + 10.0 * PARAMS.kappa
        )

    def test_late_fault_effect_shrinks_downstream(self):
        """Self-stabilization: the bump a fault injects decays over layers."""
        plan = FaultPlan.from_nodes({(4, 2): AdversarialLateFault(40.0)})
        result = faulty_sim(plan, diameter=8).run(2)
        clean = noisy_sim(diameter=8).run(2)
        shift = np.abs(result.times - clean.times)
        near = np.nanmax(shift[0, 3, :])
        far = np.nanmax(shift[0, -1, :])
        assert far <= near + 1e-12

    def test_two_spread_faults_contained(self):
        plan = FaultPlan.from_nodes(
            {(2, 2): CrashFault(), (7, 5): AdversarialEarlyFault(20.0)}
        )
        graph = noisy_sim(diameter=8).graph
        assert plan.is_one_local(graph)
        result = faulty_sim(plan).run(3)
        assert result.max_local_skew() <= PARAMS.worst_case_fault_bound(8, 2)


class TestMedianContainmentAblation:
    def test_stick_to_median_contains_late_fault(self):
        # Algorithm 1 semantics: nodes *wait* for the late message, so the
        # correction rule alone must contain it.  (In Algorithm 3 the
        # missing-message fallback independently caps late own-copies.)
        plan = FaultPlan.from_nodes({FAULT_NODE: AdversarialLateFault(50.0)})
        with_median = (
            faulty_sim(plan, algorithm="simplified").run(3).max_local_skew()
        )
        without_median = (
            faulty_sim(
                plan,
                algorithm="simplified",
                policy=CorrectionPolicy(stick_to_median=False),
            )
            .run(3)
            .max_local_skew()
        )
        # Without the median rule the victim column inherits a large part
        # of the 50-kappa lag; with it the damage stays near 2-kappa scale.
        assert without_median > 3.0 * with_median

    def test_full_algorithm_contains_late_fault_via_fallback(self):
        # The full algorithm's own-missing fallback keeps even the
        # policy-ablated variant bounded -- containment is layered.
        plan = FaultPlan.from_nodes({FAULT_NODE: AdversarialLateFault(50.0)})
        ablated = (
            faulty_sim(plan, policy=CorrectionPolicy(stick_to_median=False))
            .run(3)
            .max_local_skew()
        )
        assert ablated <= PARAMS.worst_case_fault_bound(8, 1)

    def test_layer0_fault_supported(self):
        plan = FaultPlan.from_nodes({(3, 0): CrashFault()})
        result = faulty_sim(plan).run(2)
        assert np.isnan(result.times[:, 0, 3]).all()
        assert not np.isnan(result.times[:, 1, :]).any()


class TestVectorizedFaultCrossValidation:
    """Array kernel vs the scalar per-cell rule under faults (fallback coverage)."""

    def assert_equivalent(self, vec, scalar):
        assert_results_equivalent(vec, scalar, check_fault_sends=True)

    @pytest.mark.parametrize(
        "behavior",
        [
            CrashFault(),
            AdversarialLateFault(30.0),
            AdversarialEarlyFault(30.0),
            ByzantineRandomFault(span=0.6, seed=3),
        ],
    )
    def test_matches_scalar_single_fault(self, behavior):
        plan = FaultPlan.from_nodes({FAULT_NODE: behavior})
        vec = faulty_sim(plan).run(3)
        scalar = scalar_run(plan, 3)
        self.assert_equivalent(vec, scalar)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_random_fault_plans(self, seed):
        from repro.experiments.thm13_random_faults import mixed_behavior_factory

        graph = noisy_sim(diameter=8).graph
        plan = FaultPlan.random(
            graph,
            probability=0.06,
            rng_or_seed=seed,
            behavior_factory=mixed_behavior_factory,
        )
        vec = faulty_sim(plan, seed=seed).run(3)
        scalar = scalar_run(plan, 3, seed=seed)
        self.assert_equivalent(vec, scalar)

    def test_matches_scalar_layer0_fault(self):
        plan = FaultPlan.from_nodes({(3, 0): CrashFault()})
        vec = faulty_sim(plan).run(2)
        scalar = scalar_run(plan, 2)
        self.assert_equivalent(vec, scalar)

    def test_matches_scalar_outside_model(self):
        # Two silent predecessors (1-locality violated): the victim takes
        # the never-exits branch; the kernel must defer to the fallback.
        plan = FaultPlan.from_nodes(
            {(3, 3): CrashFault(), (5, 3): CrashFault()}
        )
        vec = faulty_sim(plan).run(2)
        scalar = scalar_run(plan, 2)
        self.assert_equivalent(vec, scalar)


class TestDeadlockRegimes:
    def test_two_faulty_predecessors_stall_simplified(self):
        # Algorithm 1 deadlocks when any predecessor is silent.
        plan = FaultPlan.from_nodes({FAULT_NODE: CrashFault()})
        result = faulty_sim(plan, algorithm="simplified").run(2)
        # The crash's own-copy successor never pulses under Algorithm 1...
        assert np.isnan(result.times[:, 4, 4]).all()
        # ...which is exactly why the paper needs Algorithm 3.
        full = faulty_sim(plan, algorithm="full").run(2)
        assert not np.isnan(full.times[:, 4, 4]).any()

    def test_outside_model_two_silent_preds(self):
        # Two crashed predecessors of one node (violates 1-locality): the
        # full algorithm cannot fill all registers and the victim stalls.
        plan = FaultPlan.from_nodes(
            {(3, 3): CrashFault(), (5, 3): CrashFault()}
        )
        graph = noisy_sim(diameter=8).graph
        assert not plan.is_one_local(graph)
        result = faulty_sim(plan).run(2)
        assert result.branches[0, 4, 4] in (
            BRANCH_CODES["none"],
            BRANCH_CODES["via_max"],
            BRANCH_CODES["low"],
        )
