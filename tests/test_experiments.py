"""Tests for the experiment drivers: every paper artifact reproduces.

Each driver runs at reduced scale here; the benchmark harness runs the
paper-scale versions.  These tests pin the *qualitative* claims -- who
wins, what grows, what stays bounded -- so a regression in any subsystem
surfaces as a failed paper claim.
"""

from repro.experiments.ablations import (
    run_discretization_ablation,
    run_median_ablation,
)
from repro.experiments.common import standard_config
from repro.experiments.cor15_variation import run_cor15
from repro.experiments.fig1_trix_hex import run_fig1
from repro.experiments.fig23_structure import run_structure
from repro.experiments.fig5_jump import run_fig5
from repro.experiments.lemA1_layer0 import run_lemA1
from repro.experiments.potential_decay import run_potential_decay
from repro.experiments.table1 import run_table1
from repro.experiments.thm11_local_skew import run_thm11
from repro.experiments.thm12_worstcase_faults import run_thm12
from repro.experiments.thm13_random_faults import run_thm13
from repro.experiments.thm14_static_faults import run_thm14
from repro.experiments.thm16_selfstab import run_thm16


class TestCommon:
    def test_standard_config_shapes(self):
        config = standard_config(8, seed=1)
        assert config.graph.diameter == 8
        assert config.graph.num_layers == 8
        assert config.num_grid_nodes == config.graph.width * 8

    def test_config_rng_deterministic(self):
        a = standard_config(4, seed=2).rng(salt=1).integers(1000)
        b = standard_config(4, seed=2).rng(salt=1).integers(1000)
        assert a == b


class TestTable1:
    def test_qualitative_claims(self):
        result = run_table1(diameters=(8, 16), seeds=(0,), num_pulses=2)
        assert result.fits["naive-trix"].slope > 0.7  # ~linear in D
        # Gradient TRIX under the same worst case: much flatter and far
        # below the naive skew at the larger diameter.
        gt = dict(result.local_skews("gradient-trix"))
        naive = dict(result.local_skews("naive-trix"))
        assert gt[16] < naive[16]
        # Every gradient-trix row respects its theory bound.
        for row in result.rows:
            if row.method == "gradient-trix":
                assert row.local_skew <= row.theory_bound
        assert "Table 1" in result.table()

    def test_hex_crash_row_dwarfs_others(self):
        result = run_table1(diameters=(8,), seeds=(0,), num_pulses=2)
        by_method = {r.method: r for r in result.rows}
        assert (
            by_method["hex+crash"].local_skew
            > 10 * by_method["gradient-trix"].local_skew
        )


class TestFigures:
    def test_fig1_trix_pile_up_and_hex_penalty(self):
        result = run_fig1(diameter=16, num_pulses=2)
        # Left: naive TRIX piles up along layers; gradient TRIX does not.
        assert result.trix_final_skew > 3 * result.trix_skew_by_layer[1]
        assert result.gradient_skew_by_layer[-1] <= result.trix_final_skew
        # Right: the crash costs about d.
        assert result.hex_crash_penalty >= 0.5 * result.params.d
        assert "Figure 1" in result.table()

    def test_fig23_degree_claims(self):
        result = run_structure(length=16, num_layers=6)
        # Figure 2: minimum degree 2.
        assert result.min_base_degree == 2
        # Figure 3: "most nodes have in-degree 3, some 4".
        assert result.fraction_in_degree_3 > 0.5
        assert set(result.in_degrees) == {3, 4}
        assert set(result.out_degrees) == {3, 4}
        assert "Figure 2" in result.table()

    def test_fig5_oscillation(self):
        result = run_fig5(diameter=12)
        # Without JC the oscillation amplifies; with JC it dampens.
        assert result.final_without_jc > result.amplitude_without_jc[0]
        assert result.final_with_jc < result.amplitude_with_jc[0] / 3
        assert result.final_without_jc > 5 * result.final_with_jc
        assert "Figure 5" in result.table()


class TestTheorems:
    def test_thm11(self):
        result = run_thm11(diameters=(4, 8, 16), seeds=(0, 1), num_pulses=3)
        assert result.all_within_bound
        # Sub-linear growth: power exponent well below 1.
        assert result.power_fit.slope < 0.6
        assert "Theorem 1.1" in result.table()

    def test_thm12(self):
        result = run_thm12(diameter=12, fault_counts=(0, 1, 2), num_pulses=2)
        assert result.all_within_bound
        assert result.monotone
        assert result.rows[1].local_skew > result.rows[0].local_skew
        assert "Theorem 1.2" in result.table()
        # The batched sweep reproduces the per-f runs bit for bit: these
        # are the values one FastSimulation.run per fault count gave.
        assert [
            (r.num_faults, r.local_skew.hex(), r.bound.hex())
            for r in result.rows
        ] == [
            (0, "0x1.183f8481aae00p-6", "0x1.f739f79d7f59cp-2"),
            (1, "0x1.381d8d17c5dc0p-5", "0x1.796b79b61f835p+1"),
            (2, "0x1.63a4160287f00p-5", "0x1.e78027e0935efp+3"),
        ]

    def test_thm13(self):
        result = run_thm13(diameter=10, num_trials=5, num_pulses=2)
        assert result.fraction_within_envelope == 1.0
        assert result.max_skew <= result.envelope
        assert all(t.num_faults >= 0 for t in result.trials)
        assert "Theorem 1.3" in result.table()

    def test_thm14(self):
        result = run_thm14(diameter=12, num_pulses=3)
        assert result.within_envelope
        # Static faults: the schedule is exactly periodic.
        assert result.max_period_error < 1e-9
        assert "Theorem 1.4" in result.table()

    def test_cor15(self):
        result = run_cor15(diameter=12, num_pulses=4)
        assert result.within_envelope
        assert result.behavior_changes >= 1
        assert result.delay_step > 0
        assert "Corollary 1.5" in result.table()

    def test_thm16(self):
        result = run_thm16(diameter=5, num_trials=2)
        assert result.stabilized
        assert result.stabilized_within_budget
        assert result.churn_actions > 0  # the campaign actually churned
        assert result.last_event_pulse > 0
        # One skew sample per (trial, pulse); the recovered tail is clean.
        assert result.skew_series.shape == (2, result.num_pulses)
        assert result.worst_recovered_skew <= result.skew_bound
        # Churn accounting rode through the batch, parallel to
        # fallback_reasons.
        assert sorted(result.batch.campaign_stats) == [0, 1]
        assert "Theorem 1.6" in result.table()

    def test_lemA1(self):
        result = run_lemA1(chain_lengths=(8, 16), num_pulses=3)
        assert result.all_within_bound
        assert "Lemma A.1" in result.table()


class TestPotentialsAndAblations:
    def test_potential_decay(self):
        result = run_potential_decay(diameter=8, num_layers=24)
        assert result.decayed(1)
        assert result.decayed(2)
        assert "Potential decay" in result.table()

    def test_discretization_ablation_runs(self):
        result = run_discretization_ablation(diameter=8, num_pulses=2)
        assert result.skew_with > 0
        assert result.skew_without > 0
        assert "Ablation" in result.table()

    def test_median_ablation_shows_containment(self):
        result = run_median_ablation(diameter=8, num_pulses=2)
        assert result.degradation > 3.0
