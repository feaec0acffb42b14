"""Tests for repro.core.conditions: SC/FC/JC hold on real executions.

These are the empirical counterparts of Lemmas D.4-D.6: every execution of
the algorithm must satisfy the slow, fast, and jump conditions at every
correct node with correct predecessors.
"""

import numpy as np
import pytest

from repro.core.conditions import (
    check_all_conditions,
    check_fast_condition,
    check_jump_condition,
    check_slow_condition,
)
from repro.core.layer0 import AlternatingLayer0, JitteredLayer0
from repro.faults import AdversarialLateFault, CrashFault, FaultPlan
from tests.test_fast_sim import PARAMS, noisy_sim


class TestFaultFree:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_no_violations_on_noisy_runs(self, seed):
        result = noisy_sim(diameter=8, seed=seed).run(3)
        assert check_all_conditions(result) == []

    def test_no_violations_with_jittered_input(self):
        sim = noisy_sim(diameter=8, seed=0)
        sim.layer0 = JitteredLayer0(
            PARAMS.Lambda, sim.graph.width, jitter_bound=2 * PARAMS.kappa, seed=1
        )
        assert check_all_conditions(sim.run(3)) == []

    def test_no_violations_with_zigzag_input(self):
        # Large initial skew exercises the low/high jump branches.
        sim = noisy_sim(diameter=8, seed=0)
        sim.layer0 = AlternatingLayer0(PARAMS.Lambda, 5 * PARAMS.kappa)
        result = sim.run(2)
        assert check_all_conditions(result) == []
        # Sanity: the run actually used jump branches.
        from repro.core.fast import BRANCH_CODES

        used = set(np.unique(result.branches))
        assert BRANCH_CODES["low"] in used or BRANCH_CODES["high"] in used


class TestWithFaults:
    def test_conditions_hold_at_unaffected_nodes(self):
        # Checkers skip nodes with faulty predecessors; everything else
        # must still satisfy the conditions.
        plan = FaultPlan.from_nodes(
            {(4, 3): CrashFault(), (1, 5): AdversarialLateFault(30.0)}
        )
        sim = noisy_sim(diameter=8, seed=1)
        sim.fault_plan = plan
        assert check_all_conditions(sim.run(3)) == []


class TestViolationDetection:
    def _doctored(self):
        # Run results are frozen snapshots: doctor writable copies.
        result = noisy_sim(diameter=6, seed=0).run(2)
        for name in ("times", "protocol_times", "corrections",
                     "effective_corrections", "branches"):
            setattr(result, name, getattr(result, name).copy())
        return result

    def test_slow_violation_detected(self):
        result = self._doctored()
        # Inflate one effective correction: a big positive C with no
        # matching lateness violates SC.
        result.effective_corrections[0, 2, 3] = 1.0
        violations = check_slow_condition(result)
        assert violations
        assert violations[0].node == (3, 2)

    def test_fast_violation_detected(self):
        result = self._doctored()
        # A hugely negative C with aligned predecessors violates FC.
        result.effective_corrections[0, 2, 3] = -1.0
        violations = check_fast_condition(result)
        assert violations
        assert violations[0].condition.startswith("FC")

    def test_jump_violation_detected(self):
        result = self._doctored()
        # A moderately negative C without the required gap to the earliest
        # neighbor violates JC (JC-2 needs C >= t - t_min + kappa).
        result.effective_corrections[0, 2, 3] = -3 * PARAMS.kappa
        violations = check_jump_condition(result)
        assert violations
        assert violations[0].condition == "JC"

    def test_violation_string_rendering(self):
        result = self._doctored()
        result.effective_corrections[0, 2, 3] = 1.0
        violation = check_slow_condition(result)[0]
        text = str(violation)
        assert "SC" in text and "node=(3, 2)" in text
