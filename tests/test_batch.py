"""Tests for repro.experiments.batch: the batched multi-trial runner."""

import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.fast as fast_mod
import repro.experiments.batch as batch_mod
from repro.analysis.skew import (
    global_skew,
    max_inter_layer_skew,
    max_local_skew,
    overall_skew,
)
from repro.delays.models import UniformDelayModel
from repro.experiments.batch import (
    BatchResult,
    BatchRunner,
    BatchTrial,
    _shard_bounds,
)
from repro.experiments.common import standard_config
from repro.experiments.cor15_variation import cor15_trial
from repro.experiments.thm13_random_faults import mixed_behavior_factory
from repro.faults import CrashFault, FaultPlan
from tests.conftest import shards
from tests.test_fast_sim import scalar_reference
from unittest import mock

NUM_PULSES = 3


def seed_batch(seeds=(0, 1, 2), diameter=6):
    runner = BatchRunner(num_pulses=NUM_PULSES)
    trials = BatchRunner.seed_sweep(diameter, seeds, num_pulses=NUM_PULSES)
    return trials, runner.run(trials)


class TestEquivalenceWithLoop:
    """Batch statistics must equal the one-trial-at-a-time reference."""

    def test_times_match_per_trial_runs(self):
        trials, batch = seed_batch()
        for i, trial in enumerate(trials):
            reference = trial.config.simulation(
                fault_plan=trial.fault_plan
            ).run(NUM_PULSES)
            np.testing.assert_array_equal(batch.times[i], reference.times)

    def test_skew_stats_match_per_result_helpers(self):
        trials, batch = seed_batch()
        for i, trial in enumerate(trials):
            reference = trial.config.simulation().run(NUM_PULSES)
            assert batch.max_local_skews()[i] == pytest.approx(
                max_local_skew(reference), abs=1e-12
            )
            assert batch.max_inter_layer_skews()[i] == pytest.approx(
                max_inter_layer_skew(reference), abs=1e-12
            )
            assert batch.global_skews()[i] == pytest.approx(
                global_skew(reference), abs=1e-12
            )
            assert batch.overall_skews()[i] == pytest.approx(
                overall_skew(reference), abs=1e-12
            )

    def test_vectorized_and_scalar_batches_agree(self):
        def plans(config):
            return FaultPlan.random(
                config.graph,
                probability=0.05,
                rng_or_seed=config.rng(salt=99),
                behavior_factory=mixed_behavior_factory,
            )

        trials = BatchRunner.seed_sweep(
            6, (0, 1), num_pulses=NUM_PULSES, fault_plan_factory=plans
        )
        fast = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        with scalar_reference():
            slow = BatchResult(
                trials,
                [trial.simulation().run(NUM_PULSES) for trial in trials],
            )
        np.testing.assert_allclose(
            fast.times, slow.times, rtol=0.0, atol=1e-9, equal_nan=True
        )


class TestBatchResult:
    def test_stacked_shapes(self):
        trials, batch = seed_batch()
        graph = trials[0].config.graph
        expected = (len(trials), NUM_PULSES, graph.num_layers, graph.width)
        assert batch.times.shape == expected
        assert batch.corrections.shape == expected
        assert batch.effective_corrections.shape == expected
        assert batch.faulty_masks.shape == (
            len(trials), graph.num_layers, graph.width,
        )
        assert len(batch) == len(trials)

    def test_num_faults_and_masks(self):
        config = standard_config(6, num_pulses=NUM_PULSES)
        plan = FaultPlan.from_nodes({(2, 2): CrashFault()})
        batch = BatchRunner(num_pulses=NUM_PULSES).run(
            [
                BatchTrial(config=config),
                BatchTrial(config=config, fault_plan=plan, label="crash"),
            ]
        )
        np.testing.assert_array_equal(batch.num_faults(), [0, 1])
        assert not batch.faulty_masks[0].any()
        assert batch.faulty_masks[1, 2, 2]
        assert np.isnan(batch.times[1, :, 2, 2]).all()

    def test_correction_stats(self):
        _, batch = seed_batch()
        stats = batch.correction_stats()
        assert stats["max_abs"].shape == (3,)
        assert (stats["num_corrections"] > 0).all()
        assert (stats["mean_abs"] <= stats["max_abs"] + 1e-15).all()


class TestNoCopySingleStack:
    """Single-stack batches adopt the TrialStack block without copying.

    The stacked kernel already materializes the padded
    ``(S, K, L_max, W_max)`` block the per-trial results window into;
    re-stacking it in the BatchResult constructor was the ROADMAP's known
    double-materialization.  The adopted block is frozen, so mutation
    through any handle -- a per-trial result or the batch matrices --
    raises instead of silently corrupting every other view.
    """

    def test_matrices_share_memory_with_trial_results(self):
        trials, batch = seed_batch()
        for attr in ("times", "corrections", "effective_corrections"):
            stacked = getattr(batch, attr)
            for result in batch.results:
                assert np.shares_memory(stacked, getattr(result, attr)), attr

    def test_mixed_geometry_single_stack_is_also_no_copy(self):
        trials = [
            BatchTrial(config=standard_config(4, num_pulses=NUM_PULSES)),
            BatchTrial(
                config=standard_config(
                    6, num_layers=3, num_pulses=NUM_PULSES
                )
            ),
        ]
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        assert batch.stack_groups == [[0, 1]]
        assert np.shares_memory(batch.times, batch.results[0].times)
        assert np.shares_memory(batch.times, batch.results[1].times)

    def test_mutation_cannot_corrupt_the_stack(self):
        _, batch = seed_batch()
        with pytest.raises(ValueError):
            batch.results[0].times[0, 0, 0] = 123.0
        with pytest.raises(ValueError):
            batch.times[0, 0, 0, 0] = 123.0
        with pytest.raises(ValueError):
            batch.results[1].corrections[0] = 0.0

    def test_faulty_masks_adopted_from_stack(self):
        config = standard_config(4, num_pulses=NUM_PULSES)
        plan = FaultPlan.from_nodes({(1, 2): CrashFault()})
        batch = BatchRunner(num_pulses=NUM_PULSES).run(
            [BatchTrial(config=config, fault_plan=plan), BatchTrial(config=config)]
        )
        assert batch.faulty_masks[0, 2, 1]
        assert not batch.faulty_masks[1].any()
        np.testing.assert_array_equal(
            batch.faulty_masks[0], batch.results[0].faulty_mask
        )

    def test_multi_group_batches_still_copy(self):
        # Two algorithm groups -> two blocks -> the stacked matrices must
        # be materialized fresh (and per-trial values stay correct).
        config = standard_config(4, num_pulses=NUM_PULSES)
        trials = [
            BatchTrial(config=config),
            BatchTrial(config=config, algorithm="simplified"),
        ]
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        assert len(batch.stack_groups) == 2
        for i, trial in enumerate(trials):
            reference = trial.simulation().run(NUM_PULSES)
            np.testing.assert_array_equal(batch.times[i], reference.times)

    def test_process_executor_still_assembles_correctly(self, monkeypatch):
        # Shard results cross a pickle boundary, so no shared block: the
        # assembled copy must equal the serial no-copy batch exactly.
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        shards(monkeypatch, 2)
        sharded = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        np.testing.assert_array_equal(serial.times, sharded.times)
        np.testing.assert_array_equal(
            serial.faulty_masks, sharded.faulty_masks
        )
        assert len(sharded.compaction_stats) == len(sharded.stack_groups)

    def test_pickled_seed_sweep_streams_like_serial(self, monkeypatch):
        # Configs cross the pickle boundary with their rate planes and
        # base graphs (which rejoin the worker's shared structure); the
        # streamed statistics must stay bitwise equal to a serial run.
        trials = BatchRunner.seed_sweep(6, range(4), num_pulses=NUM_PULSES)
        serial = BatchRunner(num_pulses=NUM_PULSES, store_times=False).run(
            trials
        )
        shards(monkeypatch, 2)
        sharded = BatchRunner(num_pulses=NUM_PULSES, store_times=False).run(
            trials
        )
        for name in (
            "max_local_skews",
            "max_inter_layer_skews",
            "global_skews",
        ):
            a, b = getattr(serial, name)(), getattr(sharded, name)()
            assert a.tobytes() == b.tobytes(), name
        for name, values in serial.correction_stats().items():
            assert values.tobytes() == sharded.correction_stats()[name].tobytes()

    def test_per_trial_batches_remain_writable_copies(self):
        # Per-trial runs are stacks of one each; a batch over several of
        # them re-stacks their windows into a fresh writable block.
        trials = BatchRunner.seed_sweep(6, (0, 1, 2), num_pulses=NUM_PULSES)
        batch = BatchResult(
            trials, [trial.simulation().run(NUM_PULSES) for trial in trials]
        )
        assert batch.times.flags.writeable
        for result in batch.results:
            assert not np.shares_memory(batch.times, result.times)


class TestBatchRunnerValidation:
    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BatchRunner(num_pulses=NUM_PULSES).run([])

    def test_rejects_zero_pulses(self):
        with pytest.raises(ValueError):
            BatchRunner(num_pulses=0)

    def test_mismatched_grids_pad_instead_of_raising(self):
        # Mixed geometries used to be rejected; they now run as one
        # padded stack with NaN past each trial's own (L, W) window.
        trials = [
            BatchTrial(config=standard_config(4)),
            BatchTrial(config=standard_config(6)),
        ]
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        geometries = {
            (r.graph.num_layers, r.graph.base.adjacency) for r in batch.results
        }
        assert len(geometries) == 2
        assert batch.stack_groups == [[0, 1]]
        small = trials[0].config.graph
        assert np.isnan(batch.times[0, :, small.num_layers:, :]).all()
        assert np.isnan(batch.times[0, :, :, small.width:]).all()
        reference = trials[0].config.simulation().run(NUM_PULSES)
        np.testing.assert_array_equal(
            batch.times[0, :, : small.num_layers, : small.width],
            reference.times,
        )

    def test_trial_overrides(self):
        config = standard_config(4, num_pulses=NUM_PULSES)
        params = config.params
        trial = BatchTrial(
            config=config,
            delay_model=UniformDelayModel(params.d, params.u),
            clock_rates=None,  # rate-1 clocks, not the config's sample
        )
        batch = BatchRunner(num_pulses=NUM_PULSES).run([trial])
        # Uniform delays + unit rates: a perfectly symmetric execution.
        assert batch.max_local_skews()[0] == 0.0


class TestSparseBatchOptions:
    """Retired knobs, uniform and lane-compacted stacks through the runner."""

    def test_rejects_unknown_backend(self):
        # The retired speed-only and executor knobs are gone, not
        # silently ignored.
        for knob in (
            "stack",
            "stack_mixed_geometry",
            "compact_depth",
            "compact_width",
            "neighbor_backend",
            "kernel_backend",
            "executor",
            "shards",
        ):
            with pytest.raises(TypeError, match=knob):
                BatchRunner(num_pulses=NUM_PULSES, **{knob: "csr"})

    def test_uniform_group_matches_per_trial(self):
        trials = BatchRunner.seed_sweep(4, (0, 1), num_pulses=NUM_PULSES)
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        assert batch.fallback_reasons == {}
        (stats,) = batch.compaction_stats
        assert stats["active_lane_steps"] == stats["padded_lane_steps"]
        for i, trial in enumerate(trials):
            reference = trial.simulation().run(NUM_PULSES)
            np.testing.assert_array_equal(
                batch.results[i].times, reference.times
            )

    def test_lane_compacted_stack_matches_per_trial(self):
        trials = [
            BatchTrial(config=standard_config(4)),
            BatchTrial(config=standard_config(6)),
        ]
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        (stats,) = batch.compaction_stats
        assert stats["active_lane_steps"] < stats["padded_lane_steps"]
        for i, trial in enumerate(trials):
            reference = trial.simulation().run(NUM_PULSES)
            np.testing.assert_array_equal(
                batch.results[i].times, reference.times
            )

    def test_shard_merge_keeps_lane_stats(self, monkeypatch):
        # Regression: shard merging must carry the width and fallback
        # keys through the pickle boundary, one stats dict per stack
        # group, identical to the serial run's accounting.
        trials = [
            BatchTrial(config=standard_config(4, seed=s)) for s in range(2)
        ] + [
            BatchTrial(config=standard_config(6, seed=s)) for s in range(2)
        ]
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        shards(monkeypatch, 2)
        sharded = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        np.testing.assert_array_equal(serial.times, sharded.times)
        assert len(sharded.compaction_stats) == len(sharded.stack_groups)
        for stats in sharded.compaction_stats:
            for key in (
                "min_width",
                "max_width",
                "padded_lane_steps",
                "active_lane_steps",
                "lane_dropped_fraction",
                "fallback_cells",
                "fallback_batches",
                "fallback_passes",
            ):
                assert key in stats, (key, stats)
        assert sharded.fallback_reasons == serial.fallback_reasons


class TestShardBounds:
    """Balanced shard boundaries (the linspace-truncation bugfix)."""

    @given(st.integers(1, 500), st.integers(1, 64))
    def test_sizes_differ_by_at_most_one(self, num_trials, count):
        count = min(count, num_trials)
        bounds = _shard_bounds(num_trials, count)
        assert bounds[0] == 0
        assert bounds[-1] == num_trials
        assert len(bounds) == count + 1
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1

    @given(st.integers(1, 500), st.integers(1, 64))
    def test_matches_array_split_semantics(self, num_trials, count):
        count = min(count, num_trials)
        bounds = _shard_bounds(num_trials, count)
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        reference = [
            len(chunk)
            for chunk in np.array_split(np.arange(num_trials), count)
        ]
        assert sizes == reference

    def test_results_bitwise_invariant_in_shard_count(self, monkeypatch):
        trials = BatchRunner.seed_sweep(4, range(5), num_pulses=NUM_PULSES)
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for count in (2, 3, 5):
            shards(monkeypatch, count)
            sharded = BatchRunner(num_pulses=NUM_PULSES).run(trials)
            np.testing.assert_array_equal(serial.times, sharded.times)
            np.testing.assert_array_equal(
                serial.faulty_masks, sharded.faulty_masks
            )


class WorkerKiller:
    """Rate provider that kills the hosting process -- workers only.

    ``multiprocessing.parent_process()`` is ``None`` in the main
    process, so the in-parent shard retry (and the serial reference run)
    sees plain rate-1.0 clocks while any pool worker touching the trial
    dies with an uncatchable ``os._exit``, which is exactly the
    OOM-killer / SIGKILL shape ``BrokenProcessPool`` wraps.
    """

    def __call__(self, node, pulse):
        if multiprocessing.parent_process() is not None:
            os._exit(17)
        return 1.0


class TestWorkerDeathRetry:
    """A dead worker must not discard completed shards (batch.py bugfix)."""

    def _trials(self):
        trials = [
            BatchTrial(config=standard_config(4, seed=s)) for s in range(4)
        ]
        trials.append(
            BatchTrial(
                config=standard_config(4, seed=99),
                clock_rates=WorkerKiller(),
                label="killer",
            )
        )
        return trials

    def test_batch_completes_and_matches_serial(self, monkeypatch):
        trials = self._trials()
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        events = []
        shards(monkeypatch, 2)
        sharded = BatchRunner(num_pulses=NUM_PULSES).run(
            trials, on_shard=events.append
        )
        np.testing.assert_array_equal(serial.times, sharded.times)
        statuses = [e["status"] for e in events if e["event"] == "shard"]
        assert "lost" in statuses
        assert statuses.count("retried") == statuses.count("lost")
        # Every trial of a lost shard carries the retry note.
        assert any(
            "worker death" in why
            for why in sharded.fallback_reasons.values()
        )

    def test_lost_shards_annotated_without_clobbering(self, monkeypatch):
        trials = self._trials()
        shards(monkeypatch, 3)
        sharded = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        bounds = _shard_bounds(len(trials), 3)
        # The killer sits in the last shard; that whole shard must be
        # annotated (the pool may break before the middle shard lands,
        # in which case it is lost-and-retried too).  The first shard
        # runs in this process and loses nothing.
        for i in range(bounds[-2], bounds[-1]):
            assert "worker death" in sharded.fallback_reasons[i]
        assert not any(i in sharded.fallback_reasons for i in range(bounds[1]))

    def test_healthy_process_runs_emit_no_retry_events(self, monkeypatch):
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        events = []
        shards(monkeypatch, 2)
        BatchRunner(num_pulses=NUM_PULSES).run(trials, on_shard=events.append)
        assert events[0]["event"] == "plan"
        assert events[0]["shards"] == 2
        assert sum(events[0]["sizes"]) == len(trials)
        statuses = [e["status"] for e in events if e["event"] == "shard"]
        assert statuses == ["done", "done"]

    def test_serial_runs_speak_the_same_progress_protocol(self):
        trials = BatchRunner.seed_sweep(4, range(2), num_pulses=NUM_PULSES)
        events = []
        BatchRunner(num_pulses=NUM_PULSES).run(trials, on_shard=events.append)
        assert [e["event"] for e in events] == ["plan", "shard"]
        assert events[0]["sizes"] == [len(trials)]
        assert events[1]["status"] == "done"


def pool_exists(monkeypatch):
    """Let the rule see a forked pool, so only ``_SHARD_CELLS`` counts."""
    monkeypatch.setattr(batch_mod, "_POOL", mock.sentinel.pool)


def larger_half(trials):
    """The larger of two shards of ``trials``."""
    return trials[: _shard_bounds(len(trials), 2)[1]]


class TestExecutorRule:
    """Every run's shards come from the one rule."""

    def test_small_grids_run_serially(self):
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        events = []
        with mock.patch.object(batch_mod, "_worker_pool") as pool:
            BatchRunner(num_pulses=NUM_PULSES).run(trials, on_shard=events.append)
        assert not pool.called
        assert events[0]["executor"] == "serial"

    def test_stream_horizon_shape_shards_and_other_workloads_do_not(
        self, monkeypatch
    ):
        # On two CPUs, 16 fault-free trials at D = 32 over 64 streamed
        # pulses shard, and so does a faulted grid that large.
        # cold_sweep's 8 trials over 4 pulses and service_mix's D = 16
        # grid stay serial, and so does a warm grid that keeps its
        # matrices.
        monkeypatch.setattr(batch_mod, "_usable_cpus", lambda: 2)
        pool_exists(monkeypatch)
        stream = BatchRunner.seed_sweep(32, range(16))
        assert batch_mod._pick_shards(stream, 64, False) == 2
        assert batch_mod._pick_shards(stream, 64, True) == 2  # cold
        assert batch_mod._pick_shards(stream[:8], 4, False) == 1
        assert batch_mod._pick_shards(BatchRunner.seed_sweep(16, range(4)), 4, False) == 1
        faulted = [
            BatchTrial(
                config=standard_config(32, seed=s),
                fault_plan=FaultPlan({(v, 1 + s): CrashFault() for v in (3, 9)}),
            )
            for s in range(17)
        ]
        assert batch_mod._pick_shards(faulted, 64, False) == 2
        # fault_horizon's shape (17 trials over 8 pulses) shards cold,
        # when half its delay gather moves to the other CPU, and runs
        # serially warm.
        assert batch_mod._pick_shards(faulted, 8, False) == 2
        # In a process with no pool yet, the fork has to pay too: the
        # cold fault_horizon grid stays serial, the cold stream grid
        # still shards.
        monkeypatch.setattr(batch_mod, "_POOL", None)
        assert batch_mod._pick_shards(faulted, 8, False) == 1
        assert batch_mod._pick_shards(stream, 64, False) == 2
        pool_exists(monkeypatch)
        batch_mod._run_shard(faulted, 1, True)  # gather in this process
        assert batch_mod._pick_shards(faulted, 8, False) == 1
        batch_mod._run_shard(stream, 1, True)
        assert batch_mod._pick_shards(stream, 64, True) == 1

    def test_the_larger_half_decides_at_the_threshold(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "_usable_cpus", lambda: 2)
        pool_exists(monkeypatch)
        trials = BatchRunner.seed_sweep(8, range(5), num_pulses=NUM_PULSES)
        half = larger_half(trials)
        cells = batch_mod._cells(half, NUM_PULSES)
        assert cells == NUM_PULSES * 3 * 8 * 11
        # Cold, each delay edge of the larger half weighs _EDGE_CELLS.
        cold = batch_mod._cold_edges(half)
        assert cold == 3 * 7 * (11 + 2 * len(half[0].config.graph.base.edges))
        weight = cells + batch_mod._EDGE_CELLS * cold
        monkeypatch.setattr(batch_mod, "_SHARD_CELLS", weight)
        assert batch_mod._pick_shards(trials, NUM_PULSES, False) == 2
        monkeypatch.setattr(batch_mod, "_SHARD_CELLS", weight + 1)
        assert batch_mod._pick_shards(trials, NUM_PULSES, False) == 1
        # Before the pool exists, the fork's weight adds to the threshold.
        monkeypatch.setattr(batch_mod, "_POOL", None)
        monkeypatch.setattr(batch_mod, "_SHARD_CELLS", weight - batch_mod._FORK_CELLS)
        assert batch_mod._pick_shards(trials, NUM_PULSES, False) == 2
        monkeypatch.setattr(batch_mod, "_SHARD_CELLS", weight - batch_mod._FORK_CELLS + 1)
        assert batch_mod._pick_shards(trials, NUM_PULSES, False) == 1
        pool_exists(monkeypatch)
        # Kept matrices: only the cold edges count.
        monkeypatch.setattr(batch_mod, "_SHARD_CELLS", weight - cells)
        assert batch_mod._pick_shards(trials, NUM_PULSES, True) == 2
        monkeypatch.setattr(batch_mod, "_SHARD_CELLS", weight - cells + 1)
        assert batch_mod._pick_shards(trials, NUM_PULSES, True) == 1
        # Gathered, only the cells count.
        batch_mod._run_shard(trials, NUM_PULSES, True)
        assert batch_mod._cold_edges(half) == 0
        monkeypatch.setattr(batch_mod, "_SHARD_CELLS", cells)
        assert batch_mod._pick_shards(trials, NUM_PULSES, False) == 2
        monkeypatch.setattr(batch_mod, "_SHARD_CELLS", cells + 1)
        assert batch_mod._pick_shards(trials, NUM_PULSES, False) == 1

    def test_a_run_pulse_varying_model_counts_warm(self, monkeypatch):
        # A pulse-varying model keeps no gathered arrays, only its walks;
        # after a run it is warm all the same, here and in a worker.
        trial, _ = cor15_trial(6, num_pulses=NUM_PULSES)
        twin = pickle.dumps([trial])
        graph = trial.config.graph
        assert batch_mod._cold_edges([trial]) == (graph.num_layers - 1) * (
            graph.width + 2 * len(graph.base.edges)
        )
        batch_mod._run_shard([trial], NUM_PULSES, False)
        assert not batch_mod._delay_cache(trial)
        assert batch_mod._cold_edges([trial]) == 0
        monkeypatch.setattr(batch_mod, "_WORKER_ARRAYS", batch_mod.OrderedDict())
        batch_mod._run_pickled_shard(twin, NUM_PULSES, False)
        ((arrays, walks),) = batch_mod._WORKER_ARRAYS.values()
        assert walks and not arrays

    def test_picked_pool_runs_the_first_shard_here(self, monkeypatch):
        trials = BatchRunner.seed_sweep(8, range(4), num_pulses=NUM_PULSES)
        twins = BatchRunner.seed_sweep(8, range(4), num_pulses=NUM_PULSES)
        runner = BatchRunner(num_pulses=NUM_PULSES, store_times=False)
        shards(monkeypatch, 1)
        serial = runner.run(twins)
        shards(monkeypatch, 2)
        for _ in range(2):
            events = []
            batch = runner.run(trials, on_shard=events.append)
            assert (events[0]["executor"], events[0]["shards"]) == ("process", 2)
            assert [e["status"] for e in events[1:]] == ["done", "done"]
            assert not batch.fallback_reasons
            for name in ("local_skews", "inter_layer_skews", "global_skews"):
                np.testing.assert_array_equal(
                    getattr(serial, name)(), getattr(batch, name)()
                )
        # The first shard gathered here; the second's arrays stay in
        # the worker.
        assert all(batch_mod._delay_cache(t) for t in trials[:2])
        assert not any(batch_mod._delay_cache(t) for t in trials[2:])

    def test_a_worker_keeps_the_arrays_it_gathered(self, monkeypatch):
        # _run_pickled_shard called here stands in for a worker.
        monkeypatch.setattr(batch_mod, "_WORKER_ARRAYS", batch_mod.OrderedDict())
        trials = BatchRunner.seed_sweep(8, range(3), num_pulses=NUM_PULSES)
        twins = BatchRunner.seed_sweep(8, range(3), num_pulses=NUM_PULSES)
        batch_mod._run_shard(trials, NUM_PULSES, True)
        # A model pickles without its arrays: warm and cold copies of one
        # model pickle alike, and the parent's copy keeps its arrays.
        for trial, twin in zip(trials, twins):
            assert batch_mod._delay_cache(trial)
            assert pickle.dumps(batch_mod._delay_model(trial)) == pickle.dumps(
                batch_mod._delay_model(twin)
            )
        blob = pickle.dumps(trials)
        assert not any(batch_mod._delay_cache(t) for t in pickle.loads(blob))
        gathers = mock.patch.object(
            fast_mod._VectorSweep, "_gather", autospec=True,
            side_effect=fast_mod._VectorSweep._gather,
        )
        outputs = []
        for expected_gathers in (3, 0):
            with gathers as spy:
                outputs.append(batch_mod._run_pickled_shard(blob, NUM_PULSES, True))
            assert spy.call_count == expected_gathers
        assert len(batch_mod._WORKER_ARRAYS) == 3
        reference, _, _ = batch_mod._run_shard(twins, NUM_PULSES, True)
        for output in outputs:
            for result, expected in zip(output[0], reference):
                np.testing.assert_array_equal(result.times, expected.times)
        # The store is bounded: the least recently used model goes.
        monkeypatch.setattr(batch_mod, "_WORKER_MODELS", 2)
        other = BatchRunner.seed_sweep(8, [9], num_pulses=NUM_PULSES)
        batch_mod._run_pickled_shard(pickle.dumps(other), NUM_PULSES, True)
        assert len(batch_mod._WORKER_ARRAYS) == 2

    def test_picked_pool_runs_an_unpicklable_shard_in_parent(self, monkeypatch):
        trials = [
            BatchTrial(config=standard_config(4, seed=s)) for s in range(4)
        ]
        for trial in trials[2:]:
            trial.clock_rates = lambda node, pulse: 1.0 + 1e-6 * pulse
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        shards(monkeypatch, 2)
        events = []
        with mock.patch.object(batch_mod, "_worker_pool") as pool:
            picked = BatchRunner(num_pulses=NUM_PULSES).run(
                trials, on_shard=events.append
            )
        assert not pool.called  # both shards ran here
        assert (events[0]["executor"], events[0]["shards"]) == ("process", 2)
        statuses = {e["shard"]: e["status"] for e in events if e["event"] == "shard"}
        assert statuses == {0: "done", 1: "in_parent"}
        assert sorted(picked.fallback_reasons) == [2, 3]
        assert all(
            "do not pickle" in why for why in picked.fallback_reasons.values()
        )
        np.testing.assert_array_equal(serial.times, picked.times)
        np.testing.assert_array_equal(
            serial.max_local_skews(), picked.max_local_skews()
        )

    def test_one_usable_cpu_never_shards(self, monkeypatch):
        # Pinned to one CPU: the rule and the pool size both read the
        # affinity mask, so nothing forks.
        monkeypatch.setattr(batch_mod.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(batch_mod, "_SHARD_CELLS", 0)
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        assert batch_mod._pick_shards(trials, NUM_PULSES, False) == 1
        events = []
        with mock.patch.object(batch_mod, "_worker_pool") as pool:
            BatchRunner(num_pulses=NUM_PULSES, store_times=False).run(
                trials, on_shard=events.append
            )
        assert (events[0]["executor"], events[0]["shards"]) == ("serial", 1)
        assert not pool.called
        monkeypatch.setattr(batch_mod, "_POOL", None)
        executor_class = mock.Mock()
        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", executor_class)
        assert batch_mod._worker_pool() is executor_class.return_value
        executor_class.assert_called_once_with(max_workers=1)

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(batch_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(batch_mod.os, "cpu_count", lambda: 3)
        assert batch_mod._usable_cpus() == 3
        monkeypatch.setattr(batch_mod.os, "cpu_count", lambda: None)
        assert batch_mod._usable_cpus() == 1


def worker_pids():
    """PIDs of this process's live multiprocessing children."""
    return {p.pid for p in multiprocessing.active_children()}


def per_trial(trials):
    """The reference batch: each trial run on its own, in this process."""
    return BatchResult(trials, [t.simulation().run(NUM_PULSES) for t in trials])


def wait_reaped(pids, timeout=30.0):
    """Block until none of ``pids`` is a live child any more."""
    deadline = time.monotonic() + timeout
    while worker_pids() & set(pids):
        assert time.monotonic() < deadline, f"workers {pids} never exited"
        time.sleep(0.02)


class TestWorkerPool:
    """One worker pool serves every pooled run, and recovers when broken."""

    @pytest.fixture(autouse=True)
    def _two_shards(self, monkeypatch):
        shards(monkeypatch, 2)

    def _run(self, trials):
        """A two-shard run: (batch, shard statuses, pids seen)."""
        events, pids = [], set()

        def on_shard(event):
            events.append(event)
            pids.update(worker_pids())

        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials, on_shard=on_shard)
        statuses = [e["status"] for e in events if e["event"] == "shard"]
        return batch, statuses, pids

    def test_consecutive_runs_share_worker_pids(self):
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        _, _, first = self._run(trials)
        _, _, second = self._run(trials)
        assert first and first == second
        # The workers outlive the run, idle until the next one.
        assert first <= worker_pids()

    def test_pool_broken_by_a_dying_worker_is_replaced(self):
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        _, _, old = self._run(trials)
        _, statuses, _ = self._run(TestWorkerDeathRetry()._trials())
        assert "lost" in statuses
        wait_reaped(old)
        serial = per_trial(trials)
        batch, statuses, new = self._run(trials)
        assert statuses == ["done", "done"]
        assert not batch.fallback_reasons
        assert new and not new & old
        assert new <= worker_pids()
        np.testing.assert_array_equal(serial.times, batch.times)

    def test_idle_worker_killed_between_runs_loses_nothing(self):
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        self._run(trials)
        idle = worker_pids()
        assert idle, "no idle workers between runs"
        os.kill(min(idle), signal.SIGKILL)
        # The pool's manager thread sees the death and stops the other
        # workers; once all are reaped the pool is flagged broken.
        wait_reaped(idle)
        serial = per_trial(trials)
        batch, statuses, pids = self._run(trials)
        assert statuses == ["done", "done"]
        assert batch.fallback_reasons == {}
        assert pids and not pids & idle
        np.testing.assert_array_equal(serial.times, batch.times)

    def _race_fresh_pool(self, trials, count):
        """``count`` threads start process runs at once with no pool."""
        if batch_mod._POOL is not None:
            idle = worker_pids()
            batch_mod._discard_pool(batch_mod._POOL)
            wait_reaped(idle)
        outcomes = []
        start = threading.Barrier(count)

        def run():
            start.wait(30.0)
            outcomes.append(self._run(trials))

        threads = [threading.Thread(target=run) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
        assert len(outcomes) == count
        return outcomes

    def test_concurrent_runs_fork_one_pool(self):
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        serial = per_trial(trials)
        workers = len(os.sched_getaffinity(0))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                seen = set()
                for batch, statuses, pids in self._race_fresh_pool(
                    trials, 2 * workers + 2
                ):
                    assert statuses == ["done", "done"]
                    np.testing.assert_array_equal(serial.times, batch.times)
                    seen |= pids
                # A second pool forked by a lost update would add PIDs.
                assert len(seen) <= workers
        finally:
            sys.setswitchinterval(switch)
