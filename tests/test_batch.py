"""Tests for repro.experiments.batch: the batched multi-trial runner."""

import multiprocessing
import os
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
from repro.experiments.thm13_random_faults import mixed_behavior_factory
from repro.faults import CrashFault, FaultPlan
from tests.test_fast_sim import scalar_reference

NUM_PULSES = 3


def seed_batch(seeds=(0, 1, 2), diameter=6, **kwargs):
    runner = BatchRunner(num_pulses=NUM_PULSES, **kwargs)
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

    def test_process_executor_still_assembles_correctly(self):
        # Shard results cross a pickle boundary, so no shared block: the
        # assembled copy must equal the serial no-copy batch exactly.
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        sharded = BatchRunner(
            num_pulses=NUM_PULSES, executor="process", shards=2
        ).run(trials)
        np.testing.assert_array_equal(serial.times, sharded.times)
        np.testing.assert_array_equal(
            serial.faulty_masks, sharded.faulty_masks
        )
        assert len(sharded.compaction_stats) == len(sharded.stack_groups)

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
        assert batch.heterogeneous
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
    """Neighbor representation and lane compaction through the runner."""

    def test_rejects_unknown_backend(self):
        # The retired speed-only knobs are gone, not silently ignored.
        for knob in (
            "stack",
            "stack_mixed_geometry",
            "compact_depth",
            "compact_width",
            "neighbor_backend",
            "kernel_backend",
        ):
            with pytest.raises(TypeError, match=knob):
                BatchRunner(num_pulses=NUM_PULSES, **{knob: "csr"})

    def test_explicit_csr_matches_dense_on_uniform_group(self, monkeypatch):
        trials = BatchRunner.seed_sweep(4, (0, 1), num_pulses=NUM_PULSES)
        dense = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        assert dense.compaction_stats[0]["neighbor_backend"] == "dense"
        monkeypatch.setattr(fast_mod, "_prefer_csr", lambda base: True)
        csr = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        np.testing.assert_array_equal(csr.times, dense.times)
        assert csr.fallback_reasons == {}
        (stats,) = csr.compaction_stats
        assert stats["neighbor_backend"] == "csr"

    def test_csr_preference_on_padded_group_runs_dense(self, monkeypatch):
        # Mixed geometries cannot share one CSR edge layout, so a padded
        # group stacks on the dense tensors even where the heuristic
        # prefers CSR.
        trials = [
            BatchTrial(config=standard_config(4)),
            BatchTrial(config=standard_config(6)),
        ]
        reference = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        monkeypatch.setattr(fast_mod, "_prefer_csr", lambda base: True)
        batch = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        np.testing.assert_array_equal(batch.times, reference.times)
        assert batch.fallback_reasons == {}
        (stats,) = batch.compaction_stats
        assert stats["neighbor_backend"] == "dense"

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

    def test_shard_merge_keeps_lane_and_backend_stats(self):
        # Regression: shard merging must carry the new width/backend
        # keys through the pickle boundary, one stats dict per stack
        # group, identical to the serial run's accounting.
        trials = [
            BatchTrial(config=standard_config(4, seed=s)) for s in range(2)
        ] + [
            BatchTrial(config=standard_config(6, seed=s)) for s in range(2)
        ]
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        sharded = BatchRunner(
            num_pulses=NUM_PULSES, executor="process", shards=2
        ).run(trials)
        np.testing.assert_array_equal(serial.times, sharded.times)
        assert len(sharded.compaction_stats) == len(sharded.stack_groups)
        for stats in sharded.compaction_stats:
            for key in (
                "min_width",
                "max_width",
                "padded_lane_steps",
                "active_lane_steps",
                "lane_dropped_fraction",
                "neighbor_backend",
                "fallback_cells",
                "fallback_batches",
                "fallback_passes",
            ):
                assert key in stats, (key, stats)
        assert sharded.fallback_reasons == serial.fallback_reasons


class TestShardBounds:
    """Balanced shard boundaries (the linspace-truncation bugfix)."""

    @given(st.integers(1, 500), st.integers(1, 64))
    def test_sizes_differ_by_at_most_one(self, num_trials, shards):
        shards = min(shards, num_trials)
        bounds = _shard_bounds(num_trials, shards)
        assert bounds[0] == 0
        assert bounds[-1] == num_trials
        assert len(bounds) == shards + 1
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1

    @given(st.integers(1, 500), st.integers(1, 64))
    def test_matches_array_split_semantics(self, num_trials, shards):
        shards = min(shards, num_trials)
        bounds = _shard_bounds(num_trials, shards)
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        reference = [
            len(chunk)
            for chunk in np.array_split(np.arange(num_trials), shards)
        ]
        assert sizes == reference

    def test_results_bitwise_invariant_in_shard_count(self):
        trials = BatchRunner.seed_sweep(4, range(5), num_pulses=NUM_PULSES)
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        for shards in (2, 3, 5):
            sharded = BatchRunner(
                num_pulses=NUM_PULSES, executor="process", shards=shards
            ).run(trials)
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

    def test_batch_completes_and_matches_serial(self):
        trials = self._trials()
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        events = []
        sharded = BatchRunner(
            num_pulses=NUM_PULSES, executor="process", shards=2
        ).run(trials, on_shard=events.append)
        np.testing.assert_array_equal(serial.times, sharded.times)
        statuses = [e["status"] for e in events if e["event"] == "shard"]
        assert "lost" in statuses
        assert statuses.count("retried") == statuses.count("lost")
        # Every trial of a lost shard carries the retry note.
        assert any(
            "worker death" in why
            for why in sharded.fallback_reasons.values()
        )

    def test_lost_shards_annotated_without_clobbering(self):
        trials = self._trials()
        sharded = BatchRunner(
            num_pulses=NUM_PULSES, executor="process", shards=2
        ).run(trials)
        bounds = _shard_bounds(len(trials), 2)
        # The killer sits in the last shard; at minimum that whole
        # shard must be annotated (the pool may break before the other
        # shard lands, in which case it is lost-and-retried too).
        for i in range(bounds[-2], bounds[-1]):
            assert "worker death" in sharded.fallback_reasons[i]

    def test_healthy_process_runs_emit_no_retry_events(self):
        trials = BatchRunner.seed_sweep(4, range(4), num_pulses=NUM_PULSES)
        events = []
        BatchRunner(
            num_pulses=NUM_PULSES, executor="process", shards=2
        ).run(trials, on_shard=events.append)
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


def worker_pids():
    """PIDs of this process's live multiprocessing children."""
    return {p.pid for p in multiprocessing.active_children()}


def wait_reaped(pids, timeout=30.0):
    """Block until none of ``pids`` is a live child any more."""
    deadline = time.monotonic() + timeout
    while worker_pids() & set(pids):
        assert time.monotonic() < deadline, f"workers {pids} never exited"
        time.sleep(0.02)


class TestWorkerPool:
    """One worker pool serves every process run, and recovers when broken."""

    def _run(self, trials):
        """A two-shard process run: (batch, shard statuses, pids seen)."""
        events, pids = [], set()

        def on_shard(event):
            events.append(event)
            pids.update(worker_pids())

        batch = BatchRunner(
            num_pulses=NUM_PULSES, executor="process", shards=2
        ).run(trials, on_shard=on_shard)
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
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
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
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
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
        serial = BatchRunner(num_pulses=NUM_PULSES).run(trials)
        workers = os.cpu_count() or 1
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
