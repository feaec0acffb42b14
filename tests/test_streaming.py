"""Streamed statistics: memory contract, process shards, pickling.

The bitwise agreement of streamed statistics with the materialized array
reducers across every execution path lives in ``test_differential.py``;
this module pins everything else the streaming pipeline promises:

* ``store_times=False`` never allocates the ``(S, K, L, W)`` pulse-time
  block (asserted with :mod:`tracemalloc`, not by inspection),
* streamed accumulators survive process-executor pickling, sharded
  runs reproduce the serial run bitwise, and one stack group's results
  share one :class:`StreamedStats` even after a pickle round-trip, and
* the failure modes raise instead of silently serving garbage (mixed
  streamed/materialized batches, results without accumulators), and
* the per-(block, layer) fold relies only on its plane invariant --
  every cell a step did not write is NaN -- so random NaN-laden planes
  fold to the array reducers bitwise under any pulse blocks, and so do
  stacks whose compaction skips rows (depth skew, dead rows).
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.skew import (
    global_skew_layers,
    inter_layer_skew_layers,
    local_skew_layers,
)
from repro.analysis.streaming import (
    StreamedStats,
    StreamLayout,
    fold_correction_planes,
)
from repro.core.fast import FastSimulation
from repro.core.fast_batch import TrialStack, _pulse_blocks
from repro.experiments.batch import BatchRunner, BatchTrial
from repro.experiments.common import standard_config
from repro.experiments.thm13_random_faults import thm13_trials
from repro.faults.injection import FaultPlan
from repro.faults.model import SilentFromFault
from repro.topology.base_graph import cycle_graph
from repro.topology.layered import LayeredGraph
from tests.conftest import shards

NUM_PULSES = 4


def _trials(n=6, seed0=0, faults=True):
    """A mixed-geometry, mixed-fault trial list (exercises every path)."""
    trials = []
    for s in range(n):
        diameter = [6, 8, 10][s % 3]
        config = standard_config(diameter, seed=seed0 + s)
        plan = (
            FaultPlan.random(config.graph, 0.08, rng_or_seed=seed0 + s)
            if faults and s % 2
            else None
        )
        trials.append(BatchTrial(config=config, fault_plan=plan))
    return trials


def _simulation(diameter=6, seed=0):
    config = standard_config(diameter, seed=seed)
    return FastSimulation(
        config.graph,
        config.params,
        delay_model=config.delay_model,
        clock_rates=config.clock_rates,
    )


# ----------------------------------------------------------------------
# Memory contract
# ----------------------------------------------------------------------
class TestMemoryContract:
    @pytest.fixture(autouse=True)
    def _in_process(self, monkeypatch):
        # tracemalloc sees this process only.
        shards(monkeypatch, 1)

    def test_streaming_never_allocates_the_block(self):
        """Peak streamed allocation stays under ONE (S, K, L, W) matrix.

        The materialized run keeps five such matrices; if the streaming
        path ever materialized even one, its traced peak would exceed
        the single-block budget this asserts against.
        """
        num_pulses = 48
        trials = [
            BatchTrial(config=standard_config(8, seed=s)) for s in range(24)
        ]
        graph = trials[0].config.graph
        block_bytes = (
            len(trials) * num_pulses * graph.num_layers * graph.width * 8
        )
        # Warm the per-edge delay/rate caches (they live on the configs'
        # delay models and scale with S*L*W, independent of the pulse
        # count) so the traced peaks below isolate the result matrices.
        BatchRunner(num_pulses=2, store_times=False).run(trials)

        tracemalloc.start()
        tracemalloc.reset_peak()
        streamed = BatchRunner(num_pulses=num_pulses, store_times=False).run(
            trials
        )
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert streamed.streaming
        assert stream_peak < block_bytes, (
            f"streaming peak {stream_peak} exceeds one pulse-time block "
            f"({block_bytes} bytes) -- the (S, K, L, W) block leaked back"
        )

        tracemalloc.start()
        tracemalloc.reset_peak()
        materialized = BatchRunner(num_pulses=num_pulses).run(trials)
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Sanity: the materialized run really pays for the block(s), so
        # the streamed bound above is a real constraint, not a tautology.
        assert full_peak > 2 * block_bytes
        np.testing.assert_array_equal(
            streamed.max_local_skews(), materialized.max_local_skews()
        )

    def test_short_horizon_blocks_stay_under_one_block(self):
        """A 16-pulse horizon blocks 4 pulses and still streams under
        ONE (S, K, L, W) matrix: the two-layer ring does not grow with
        the depth, so short horizons need no one-pulse cap."""
        num_pulses = 16
        trials = [
            BatchTrial(config=standard_config(32, seed=s)) for s in range(32)
        ]
        graph = trials[0].config.graph
        block_bytes = (
            len(trials) * num_pulses * graph.num_layers * graph.width * 8
        )
        runner = BatchRunner(num_pulses=num_pulses, store_times=False)
        runner.run(trials)  # warm the delay/rate caches, as above

        tracemalloc.start()
        tracemalloc.reset_peak()
        streamed = runner.run(trials)
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert streamed.compaction_stats[0]["block_pulses"] >= 4
        assert stream_peak < block_bytes, (
            f"streaming peak {stream_peak} exceeds one pulse-time block "
            f"({block_bytes} bytes) at {num_pulses} pulses"
        )

    def test_streamed_results_hold_no_matrices(self):
        batch = BatchRunner(num_pulses=3, store_times=False).run(_trials())
        assert batch.times is None
        assert batch.corrections is None
        assert batch.effective_corrections is None
        for result in batch.results:
            assert result.times is None
            assert result.protocol_times is None
            assert result.corrections is None
            assert result.effective_corrections is None
            assert result.branches is None
            assert result.streamed is not None


# ----------------------------------------------------------------------
# Process shards and pickling
# ----------------------------------------------------------------------
class TestShardsAndPickling:
    def test_process_shard_merge_matches_serial_bitwise(self, monkeypatch):
        """Satellite regression: accumulators cross the process boundary.

        ``FastResult.__getstate__`` must keep ``streamed`` (it strips the
        stacked pulse-time block); a silent drop here would make every
        process-sharded streaming sweep raise on first accessor use.
        """
        serial = BatchRunner(num_pulses=NUM_PULSES, store_times=False).run(
            _trials(8)
        )
        shards(monkeypatch, 3)
        sharded = BatchRunner(num_pulses=NUM_PULSES, store_times=False).run(
            _trials(8)
        )
        assert sharded.streaming
        for name in (
            "local_skews",
            "inter_layer_skews",
            "max_local_skews",
            "max_inter_layer_skews",
            "overall_skews",
            "global_skews",
        ):
            np.testing.assert_array_equal(
                getattr(serial, name)(),
                getattr(sharded, name)(),
                err_msg=name,
            )
        want, got = serial.correction_stats(), sharded.correction_stats()
        for key in want:
            np.testing.assert_array_equal(want[key], got[key], err_msg=key)
        np.testing.assert_array_equal(
            serial.faulty_masks, sharded.faulty_masks
        )

    def test_pickle_round_trip_preserves_accessors(self):
        result = _simulation().run(NUM_PULSES, store_times=False)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.times is None
        assert clone.max_local_skew() == result.max_local_skew()
        assert clone.global_skew() == result.global_skew()
        np.testing.assert_array_equal(
            clone.streamed.trial_values("local", clone.streamed_row),
            result.streamed.trial_values("local", result.streamed_row),
        )

    def test_stack_group_shares_one_stream_through_pickle(self):
        """Pickle memoization dedupes the group's shared accumulators."""
        sims = [_simulation(seed=s) for s in range(3)]
        results = TrialStack(sims).run(NUM_PULSES, store_times=False)
        assert all(r.streamed is results[0].streamed for r in results)
        clones = pickle.loads(pickle.dumps(results))
        assert all(c.streamed is clones[0].streamed for c in clones)
        for clone, result in zip(clones, results):
            assert clone.streamed_row == result.streamed_row
            assert clone.max_local_skew() == result.max_local_skew()

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_every_shard_count_matches_serial_bitwise(self, monkeypatch, count):
        """Shard-count regression: 1, 2, and 3 shards all reassemble to
        the serial trial order (uneven splits included -- 8 trials over
        3 shards)."""
        serial = BatchRunner(num_pulses=NUM_PULSES, store_times=False).run(
            _trials(8)
        )
        shards(monkeypatch, count)
        sharded = BatchRunner(num_pulses=NUM_PULSES, store_times=False).run(
            _trials(8)
        )
        np.testing.assert_array_equal(
            serial.max_local_skews(), sharded.max_local_skews()
        )
        np.testing.assert_array_equal(
            serial.global_skews(), sharded.global_skews()
        )


# ----------------------------------------------------------------------
# Failure modes
# ----------------------------------------------------------------------
class TestFailureModes:
    def test_mixed_streamed_and_materialized_batch_rejected(self):
        from repro.experiments.batch import BatchResult

        streamed = _simulation(seed=0).run(NUM_PULSES, store_times=False)
        materialized = _simulation(seed=1).run(NUM_PULSES)
        with pytest.raises(ValueError, match="mix"):
            BatchResult(_trials(2), [streamed, materialized])

    def test_batch_rejects_result_without_stream(self):
        from repro.experiments.batch import BatchResult

        result = _simulation().run(NUM_PULSES)
        result.streamed = None
        with pytest.raises(ValueError, match="no folded statistics"):
            BatchResult(_trials(1), [result])

    def test_blockless_result_without_stream_raises(self):
        result = _simulation().run(NUM_PULSES, store_times=False)
        result.streamed = None
        with pytest.raises(ValueError, match="store_times=True"):
            result.max_local_skew()

    def test_streamed_accessors_match_materialized_reference(self):
        streamed = _simulation(seed=3).run(NUM_PULSES, store_times=False)
        materialized = _simulation(seed=3).run(NUM_PULSES)
        np.testing.assert_array_equal(
            streamed.streamed.trial_values("local", streamed.streamed_row),
            local_skew_layers(materialized.times, materialized.graph),
        )
        assert streamed.max_local_skew() == materialized.max_local_skew()
        assert streamed.global_skew() == materialized.global_skew()


# ----------------------------------------------------------------------
# The per-(block, layer) fold and its NaN-plane invariant
# ----------------------------------------------------------------------
def assert_stats_match(stats, row, times, corrections, graph):
    """Row ``row`` of ``stats`` == the array reducers on its own block."""
    np.testing.assert_array_equal(
        stats.trial_values("local", row), local_skew_layers(times, graph)
    )
    np.testing.assert_array_equal(
        stats.trial_values("inter_layer", row),
        inter_layer_skew_layers(times, graph),
    )
    np.testing.assert_array_equal(
        stats.trial_values("global", row, empty=np.nan),
        global_skew_layers(times, empty=np.nan),
    )
    want = fold_correction_planes(corrections[None])
    got = stats.trial_stats(row)
    for key, values in want.items():
        np.testing.assert_array_equal(got[key], values[0], err_msg=key)


@st.composite
def nan_windows(draw):
    """Trials over two geometries and a NaN-laden ``(S, K, L, W)`` block.

    Cells outside a trial's ``(depth, width)`` are NaN padding; inside,
    single cells and whole ``(trial, pulse, layer)`` rows go NaN at
    random -- what a compacted or faulted stack leaves unwritten.
    """
    depths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    widths = draw(st.lists(st.integers(3, 7), min_size=2, max_size=2, unique=True))
    geometries = [LayeredGraph(cycle_graph(w), d) for d, w in zip(depths, widths)]
    extra = draw(st.lists(st.integers(0, 1), max_size=4))
    members = draw(st.permutations([0, 1] + extra))
    graphs = [geometries[m] for m in members]
    num_pulses = draw(st.integers(1, 4))
    cell_nan = draw(st.sampled_from([0.0, 0.2, 0.7, 1.0]))
    row_nan = draw(st.sampled_from([0.0, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    shape = (len(graphs), num_pulses, max(depths), max(widths))
    blocks = []
    for scale in (4.0, 0.1):
        block = rng.normal(0.0, scale, shape)
        block[rng.random(shape) < cell_nan] = np.nan
        block[rng.random(shape[:3]) < row_nan] = np.nan
        for s, graph in enumerate(graphs):
            block[s, :, graph.num_layers :] = np.nan
            block[s, :, :, graph.width :] = np.nan
        blocks.append(block)
    return graphs, blocks[0], blocks[1]


def fold_in_blocks(stats, times, corrections, cuts):
    """Fold ``(S, K, L, W)`` blocks the way a streamed stack does: block
    by block (split at ``cuts``), layer by layer, over ``(S, B, W)``
    planes."""
    num_pulses, num_layers = times.shape[1], times.shape[2]
    bounds = sorted({0, num_pulses, *cuts})
    for k0, k1 in zip(bounds, bounds[1:]):
        block = slice(k0, k1)
        for layer in range(num_layers):
            stats.update(
                k0,
                layer,
                times[:, block, layer],
                corrections[:, block, layer],
                times[:, block, layer - 1] if layer else None,
            )


class TestPerPulseFold:
    @given(nan_windows(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_windows_fold_to_array_reducers(self, window, data):
        """Any pulse blocks -- one pulse each, ragged, the whole horizon
        -- fold per-layer planes to the array reducers bitwise."""
        graphs, times, corrections = window
        num_pulses = times.shape[1]
        cuts = data.draw(st.sets(st.integers(1, max(num_pulses - 1, 1))))
        stats = StreamedStats(StreamLayout(graphs, num_pulses))
        fold_in_blocks(stats, times, corrections, cuts)
        stats.finalize()
        for s, graph in enumerate(graphs):
            own = (slice(None), slice(None, graph.num_layers), slice(None, graph.width))
            assert_stats_match(
                stats, s, times[s][own], corrections[s][own], graph
            )

    @staticmethod
    def _depth_skewed():
        """Mixed diameters: rows retire as shallower trials run out."""
        return [trial.simulation() for trial in _trials(6, faults=False)]

    @staticmethod
    def _thm13_dead_rows():
        """A thm13 grid where one trial's layer 2 goes silent at pulse 2.

        Layer 3 then pulses nowhere, so layers 4+ of that trial are dead
        rows the compacted stack skips on pulses 2 and 3.
        """
        trials, _ = thm13_trials(6, [1, 2, 3], num_pulses=NUM_PULSES)
        trial = trials[2]
        plan = trial.fault_plan
        for vertex in range(trial.config.graph.width):
            plan = plan.with_fault((vertex, 2), SilentFromFault(2))
        trials[2] = BatchTrial(config=trial.config, fault_plan=plan)
        return [trial.simulation() for trial in trials]

    @pytest.mark.parametrize("build", ["_depth_skewed", "_thm13_dead_rows"])
    def test_compacted_stacks_stream_bitwise(self, build):
        """Rows the compacted kernel skips are NaN in the ring, so the
        per-step fold over a compacted stack equals the materialized
        reducers of every trial."""
        materialized = TrialStack(getattr(self, build)()).run(NUM_PULSES)
        stack = TrialStack(getattr(self, build)())
        streamed = stack.run(NUM_PULSES, store_times=False)
        stats = stack.compaction_stats
        assert stats["active_row_steps"] < stats["padded_row_steps"], stats
        for got, want in zip(streamed, materialized):
            assert got.times is None
            assert_stats_match(
                got.streamed,
                got.streamed_row,
                want.times,
                want.corrections,
                want.graph,
            )

    def test_update_runs_once_per_block_step(self, monkeypatch):
        """One fold per executed (block, layer) step -- layer 0 included
        -- blocks in pulse order and layers in order inside a block."""
        calls = []
        update = StreamedStats.update

        def counted(self, pulse, layer, *planes):
            calls.append((pulse, layer))
            return update(self, pulse, layer, *planes)

        monkeypatch.setattr(StreamedStats, "update", counted)
        num_pulses = 16
        sims = self._depth_skewed()
        stack = TrialStack(sims)
        stack.run(num_pulses, store_times=False)
        stats = stack.compaction_stats
        assert stats["block_pulses"] > 1 and stats["pulse_blocks"] > 1, stats
        num_layers = stats["num_layers"]
        blocks = _pulse_blocks(
            num_pulses, num_layers, len(sims) * stats["max_width"]
        )
        assert len(blocks) == stats["pulse_blocks"]
        assert calls == [
            (k0, layer) for k0, _ in blocks for layer in range(num_layers)
        ]
